//! End-to-end behaviour of the two reassembly conflict policies
//! (DESIGN.md §13): shadow scans of losing copies under `FirstWins`,
//! fail-closed quarantine under `RejectFlow` — the verdict an L7
//! `Block` also sets — trace events, telemetry counters, and the
//! `SystemBuilder` / metrics wiring.

use dpi_service::core::instance::{ScanEngine, ShardState};
use dpi_service::core::report::expand_records;
use dpi_service::core::{
    ConflictPolicy, DpiInstance, InstanceConfig, L7Action, L7Policy, L7Protocol, MiddleboxId,
    MiddleboxProfile, ProtocolPolicy, RuleSpec, Telemetry,
};
use dpi_service::middlebox::ids;
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::{FlowKey, MacAddr, Packet};
use dpi_service::{SystemBuilder, TraceKind, TraceSource, Tracer};
use std::sync::Arc;

const IDS: MiddleboxId = MiddleboxId(1);
const CHAIN: u16 = 1;
const PATTERN: &[u8] = b"attack-signature";

fn config(policy: ConflictPolicy) -> InstanceConfig {
    InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateful(IDS),
            vec![RuleSpec::exact(PATTERN.to_vec())],
        )
        .with_chain(CHAIN, vec![IDS])
        .with_conflict_policy(policy)
}

fn fk() -> FlowKey {
    flow([9, 9, 9, 9], 999, [8, 8, 8, 8], 80, IpProtocol::Tcp)
}

/// All pattern ids reported by a slice of scan outputs (canonical and
/// shadow alike).
fn matched_pids(outs: &[dpi_service::core::instance::ScanOutput]) -> Vec<u16> {
    outs.iter()
        .flat_map(|o| o.reports.iter())
        .flat_map(|r| expand_records(&r.records))
        .map(|(pid, _)| pid)
        .collect()
}

#[test]
fn first_wins_shadow_scans_the_losing_copy() {
    let mut dpi = DpiInstance::new(config(ConflictPolicy::FirstWins)).unwrap();
    dpi.open_tcp_flow(fk(), 1000);
    // 16 innocuous bytes delivered, then a divergent retransmission of
    // the same range carrying the pattern — the classic hiding spot for
    // a first-copy DPI engine.
    let outs = dpi
        .scan_tcp_segment(CHAIN, fk(), 1000, b"0123456789abcdef")
        .unwrap();
    assert!(matched_pids(&outs).is_empty());
    let outs = dpi.scan_tcp_segment(CHAIN, fk(), 1000, PATTERN).unwrap();
    assert!(
        matched_pids(&outs).contains(&0),
        "pattern in the losing conflict copy must be shadow-scanned, not silently missed"
    );
    let t = dpi.telemetry();
    assert!(t.reassembly_conflicts >= 1);
    assert_eq!(t.flows_quarantined, 0);
    assert!(!dpi.flow_quarantined(&fk()));
}

/// The two causes of the one fail-closed verdict (DESIGN.md §15), each
/// as a configuration and the two segments that close `fk()`: the first
/// opens the flow's reassembler, the second closes the flow and ends at
/// sequence 1016.
#[derive(Debug, Clone, Copy)]
enum Cause {
    /// A divergent retransmission under `RejectFlow`.
    Conflict,
    /// An HTTP request under an L7 `Block` policy; its first segment
    /// ("GE") is still too short to identify.
    L7Block,
}

impl Cause {
    const ALL: [Cause; 2] = [Cause::Conflict, Cause::L7Block];

    fn config(self) -> InstanceConfig {
        match self {
            Cause::Conflict => config(ConflictPolicy::RejectFlow),
            Cause::L7Block => {
                config(ConflictPolicy::FirstWins).with_l7_policy(L7Policy::default().with(
                    L7Protocol::Http1,
                    ProtocolPolicy::intercept(1 << 16).with_action(L7Action::Block),
                ))
            }
        }
    }

    fn segments(self) -> [(u32, &'static [u8]); 2] {
        match self {
            Cause::Conflict => [(1000, b"0123456789abcdef"), (1000, PATTERN)],
            Cause::L7Block => [(1000, b"GE"), (1002, b"T / HTTP/1.1\r\n")],
        }
    }

    /// `(this cause's counter, the other cause's counter)`: each counts
    /// its own cause once per flow.
    fn counters(self, t: &Telemetry) -> (u64, u64) {
        match self {
            Cause::Conflict => (t.flows_quarantined, t.l7_blocked_flows),
            Cause::L7Block => (t.l7_blocked_flows, t.flows_quarantined),
        }
    }
}

#[test]
fn reject_flow_quarantines_and_stays_closed() {
    for cause in Cause::ALL {
        let mut dpi = DpiInstance::new(cause.config()).unwrap();
        let [(seq0, first), (seq1, closing)] = cause.segments();
        dpi.open_tcp_flow(fk(), 1000);
        dpi.scan_tcp_segment(CHAIN, fk(), seq0, first).unwrap();
        let outs = dpi.scan_tcp_segment(CHAIN, fk(), seq1, closing).unwrap();
        assert!(outs.iter().all(|o| o.reports.is_empty()), "{cause:?}");
        assert!(outs.iter().any(|o| o.quarantined), "{cause:?}");
        assert!(dpi.flow_quarantined(&fk()), "{cause:?}");
        let t = dpi.telemetry();
        assert!(matches!(cause, Cause::L7Block) || t.reassembly_conflicts >= 1);
        assert_eq!(cause.counters(&t), (1, 0), "{cause:?}");

        // The quarantine is sticky: later segments produce no reports,
        // only the quarantined marker.
        let outs = dpi.scan_tcp_segment(CHAIN, fk(), 1016, b"after").unwrap();
        assert!(
            outs.iter().all(|o| o.reports.is_empty() && o.quarantined),
            "{cause:?}"
        );
        // ... and it is counted once, not per segment.
        assert_eq!(cause.counters(&dpi.telemetry()), (1, 0), "{cause:?}");

        // The packet path fails closed too: packets of a quarantined
        // flow — out of order, or a retransmit of its first segment —
        // are ECN-marked (suspect) and produce no fabricated result.
        for (seq, payload) in [(2000, &b"anything"[..]), (2008, b"anything"), (seq0, first)] {
            let mut pk = Packet::tcp(
                MacAddr::local(1),
                MacAddr::local(2),
                fk(),
                seq,
                payload.to_vec(),
            );
            pk.push_chain_tag(CHAIN).unwrap();
            assert!(dpi.inspect(&mut pk).unwrap().is_none(), "{cause:?}");
            assert!(
                pk.has_match_mark(),
                "quarantined flows' packets must carry the suspect mark ({cause:?}, seq={seq})"
            );
        }

        // Other flows on the instance are unaffected.
        let other = flow([9, 9, 9, 9], 998, [8, 8, 8, 8], 80, IpProtocol::Tcp);
        dpi.open_tcp_flow(other, 1);
        let outs = dpi.scan_tcp_segment(CHAIN, other, 1, PATTERN).unwrap();
        assert!(matched_pids(&outs).contains(&0), "{cause:?}");
        assert!(!dpi.flow_quarantined(&other), "{cause:?}");
    }
}

#[test]
fn quarantine_tears_down_the_reassembler_and_refuses_new_state() {
    for cause in Cause::ALL {
        let engine = Arc::new(ScanEngine::new(cause.config()).unwrap());
        let mut shard = ShardState::new(&engine);
        let [(seq0, first), (seq1, closing)] = cause.segments();

        shard.open_tcp_flow(fk(), 1000);
        engine
            .scan_tcp_segment(&mut shard, CHAIN, fk(), seq0, first)
            .unwrap();
        assert!(shard.has_reassembler(&fk()), "{cause:?}");
        engine
            .scan_tcp_segment(&mut shard, CHAIN, fk(), seq1, closing)
            .unwrap();
        assert!(shard.flow_quarantined(&fk()), "{cause:?}");
        assert!(
            !shard.has_reassembler(&fk()),
            "quarantine must free the flow's reassembly buffers ({cause:?})"
        );
        let bytes = shard.flow_bytes();

        // Later segments — in-order and out-of-order alike — are refused
        // before any reassembler could be (re-)created, so a quarantined
        // flow can never buffer attacker-controlled bytes again.
        for (seq, payload) in [(1016u32, &b"after"[..]), (5000, &b"far-ahead"[..])] {
            let outs = engine
                .scan_tcp_segment(&mut shard, CHAIN, fk(), seq, payload)
                .unwrap();
            assert!(
                outs.iter().all(|o| o.reports.is_empty() && o.quarantined),
                "{cause:?}"
            );
            assert!(!shard.has_reassembler(&fk()), "{cause:?}");
            assert_eq!(shard.flow_bytes(), bytes, "{cause:?}");
        }
    }
}

#[test]
fn conflict_and_quarantine_emit_trace_events() {
    let engine = Arc::new(ScanEngine::new(config(ConflictPolicy::RejectFlow)).unwrap());
    let mut shard = ShardState::new(&engine);
    let tracer = Arc::new(Tracer::new());
    shard.attach_trace_writer(tracer.writer(TraceSource::Shard(0)));

    shard.open_tcp_flow(fk(), 1000);
    engine
        .scan_tcp_segment(&mut shard, CHAIN, fk(), 1000, b"0123456789abcdef")
        .unwrap();
    engine
        .scan_tcp_segment(&mut shard, CHAIN, fk(), 1000, PATTERN)
        .unwrap();

    let mut w = shard.take_trace_writer().unwrap();
    tracer.absorb(&mut w);
    let events = tracer.snapshot();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::ReassemblyConflict { bytes } if bytes > 0)),
        "conflict must be traced"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::FlowQuarantined { .. })),
        "quarantine must be traced"
    );
}

#[test]
fn system_builder_threads_the_policy_and_exports_the_metrics() {
    let system = SystemBuilder::new()
        .with_middlebox(ids(IDS, &[PATTERN.to_vec()]))
        .with_chain(&[IDS])
        .with_conflict_policy(ConflictPolicy::RejectFlow)
        .build()
        .unwrap();
    let text = system.metrics_text();
    assert!(text.contains("dpi_reassembly_conflicts_total"));
    assert!(text.contains("dpi_flows_quarantined_total"));
}
