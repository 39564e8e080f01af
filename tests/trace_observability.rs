//! End-to-end observability: a chaos run must leave behind a structured
//! trace from which the fault timeline can be reconstructed — the
//! instance kill, the controller's suspect → dead escalation, the
//! re-steer, and the pipeline's injected stall, all in global seq order
//! with monotonic timestamps — and `metrics_text()` must expose the
//! deployment's state in Prometheus text format (DESIGN.md §10).

use dpi_service::ac::MiddleboxId;
use dpi_service::controller::HealthPolicy;
use dpi_service::core::chaos::FaultPlan;
use dpi_service::core::RuleSpec;
use dpi_service::middlebox::ids;
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::{FlowKey, MacAddr, Packet};
use dpi_service::{SystemBuilder, SystemHandle, TraceKind};

const IDS_ID: MiddleboxId = MiddleboxId(1);
const SEED: u64 = 42;

/// CI's chaos job sweeps seeds via `DPI_CHAOS_SEED`; local runs use the
/// fixed default. The assertions below are seed-independent (the seed
/// only feeds the fault plan's RNG; kill/stall ordinals are fixed).
fn seed() -> u64 {
    std::env::var("DPI_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SEED)
}

/// When `DPI_CHAOS_LOG_DIR` is set (the CI chaos job), archive the
/// run's JSONL trace there so failures are diagnosable from artifacts
/// alone.
fn archive_trace(sys: &SystemHandle, name: &str) {
    if let Ok(dir) = std::env::var("DPI_CHAOS_LOG_DIR") {
        let _ = std::fs::create_dir_all(&dir);
        let path = format!("{dir}/{name}-seed-{}.jsonl", seed());
        let _ = std::fs::write(path, sys.trace_jsonl());
    }
}

fn flow_a() -> FlowKey {
    flow([10, 0, 0, 1], 1000, [10, 0, 0, 2], 80, IpProtocol::Tcp)
}

fn flow_b() -> FlowKey {
    flow([10, 0, 0, 3], 2000, [10, 0, 0, 2], 80, IpProtocol::Tcp)
}

/// The first flow (by source port) the switch steers to `instance`.
fn flow_on(sys: &SystemHandle, instance: usize) -> FlowKey {
    (1000..)
        .map(|port| flow([10, 0, 0, 1], port, [10, 0, 0, 2], 80, IpProtocol::Tcp))
        .find(|f| sys.steered_instance_of(f) == Some(instance))
        .expect("some flow hashes to every instance")
}

fn tagged_packet(sys: &SystemHandle, f: FlowKey, seq: u32, payload: &[u8]) -> Packet {
    let mut p = Packet::tcp(
        MacAddr::local(1),
        MacAddr::local(2),
        f,
        seq,
        payload.to_vec(),
    );
    p.push_chain_tag(sys.chain_ids[0]).unwrap();
    p
}

/// Two instances; chaos kills instance 0 at its third data packet and
/// stalls pipeline shard 0 at its second.
fn build(seed: u64) -> SystemHandle {
    SystemBuilder::new()
        .with_middlebox(ids(IDS_ID, &[b"evil-sig".to_vec()]))
        .with_chain(&[IDS_ID])
        .with_dpi_instances(2)
        .with_health_policy(HealthPolicy {
            suspect_after: 1,
            dead_after: 2,
        })
        .with_chaos(
            FaultPlan::new(seed)
                .kill_instance_at_packet(0, 2)
                .stall_shard(0, 1, 5),
        )
        .build()
        .expect("system builds")
}

#[test]
fn chaos_run_trace_reconstructs_the_fault_timeline() {
    let mut sys = build(seed());

    // Registration grace window, then traffic up to the kill ordinal.
    assert!(sys.heartbeat_round().is_empty());
    let (flow_a, flow_b) = (flow_on(&sys, 0), flow_on(&sys, 1));
    sys.send(flow_a, 0, b"clean traffic a0"); // inst0 packet 0
    sys.send(flow_b, 0, b"clean traffic b0"); // inst1 packet 0
    sys.send(flow_a, 100, b"carrying evil-sig one"); // inst0 packet 1
    sys.send(flow_a, 200, b"lost in the crash"); // inst0 packet 2: kill
    sys.heartbeat_round(); // window 1: suspect
    sys.heartbeat_round(); // window 2: dead + re-steer

    // Drive the batch pipeline past the injected stall ordinal.
    let mut batch: Vec<Packet> = (0..4)
        .map(|i| tagged_packet(&sys, flow_b, 300 + i * 8, b"pipeline evil-sig"))
        .collect();
    let results = sys.inspect_batch(&mut batch);
    assert_eq!(results.len(), 4);

    archive_trace(&sys, "observability");
    let events = sys.trace_events();

    // The trace is globally ordered: seq strictly increasing, stamped
    // with non-decreasing monotonic timestamps.
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq, "snapshot must be seq-sorted");
        assert!(w[0].t_us <= w[1].t_us, "timestamps must be monotonic");
    }

    // Every injected fault left a matching event, and the failure
    // cascade reads in causal order: the chaos kill precedes the
    // controller noticing (suspect, then dead), which precedes the
    // re-steer to the survivor.
    let ctl0 = sys.instance_ids[0].0;
    let seq_of = |pred: &dyn Fn(&TraceKind) -> bool, what: &str| {
        events
            .iter()
            .find(|e| pred(&e.kind))
            .unwrap_or_else(|| panic!("missing {what} event"))
            .seq
    };
    let killed = seq_of(
        &|k| {
            matches!(
                k,
                TraceKind::FaultInstanceKilled {
                    instance: 0,
                    at_packet: 2
                }
            )
        },
        "FaultInstanceKilled",
    );
    let suspect = seq_of(
        &|k| matches!(k, TraceKind::HealthSuspect { instance } if *instance == ctl0),
        "HealthSuspect",
    );
    let dead = seq_of(
        &|k| matches!(k, TraceKind::HealthDead { instance } if *instance == ctl0),
        "HealthDead",
    );
    let resteered = seq_of(
        &|k| {
            matches!(
                k,
                TraceKind::Resteered {
                    dead_instance: 0,
                    survivor: 1,
                    rules
                } if *rules > 0
            )
        },
        "Resteered",
    );
    assert!(
        killed < suspect && suspect < dead && dead < resteered,
        "fault timeline out of order: kill {killed}, suspect {suspect}, \
         dead {dead}, resteer {resteered}"
    );
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            TraceKind::ShardStalled {
                ordinal: 1,
                millis: 5
            }
        )),
        "injected pipeline stall must be traced"
    );

    // The pipeline batch bracketed its work.
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, TraceKind::BatchStart { packets: 4 })));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, TraceKind::BatchEnd { results: 4, .. })));

    // The JSONL dump carries the full snapshot, one object per line.
    let jsonl = sys.trace_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), events.len());
    for line in lines {
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"seq\":") && line.contains("\"kind\":"));
    }
}

#[test]
fn metrics_text_exposes_counters_health_and_generation() {
    let mut sys = SystemBuilder::new()
        .with_middlebox(ids(IDS_ID, &[b"evil-sig".to_vec()]))
        .with_chain(&[IDS_ID])
        .build()
        .expect("system builds");

    sys.send(flow_a(), 0, b"first clean packet!!"); // 20 bytes
    sys.send(flow_a(), 100, b"carrying evil-sig #1"); // 20 bytes, 1 match
    sys.send(flow_b(), 0, b"another clean one :)"); // 20 bytes

    let mut batch: Vec<Packet> = (0..3)
        .map(|i| tagged_packet(&sys, flow_b(), 300 + i * 8, b"batch evil-sig here!"))
        .collect();
    sys.inspect_batch(&mut batch);

    sys.controller
        .add_pattern(IDS_ID, 7, &RuleSpec::exact(b"added-sig".to_vec()))
        .unwrap();
    assert!(sys.apply_update().unwrap().committed);

    let text = sys.metrics_text();

    // Instance counters: packets/bytes/matches with HELP/TYPE headers.
    assert!(text.contains("# TYPE dpi_instance_packets_total counter"));
    assert!(text.contains("dpi_instance_packets_total{instance=\"0\"} 3"));
    assert!(text.contains("dpi_instance_bytes_total{instance=\"0\"} 60"));
    assert!(text.contains("dpi_instance_matches_total{instance=\"0\"} 1"));

    // Per-shard pipeline counters and queue depth.
    assert!(text.contains("# TYPE dpi_shard_queue_depth_peak gauge"));
    assert!(text.contains("dpi_shard_packets_total{shard=\"0\"} 3"));
    assert!(text.contains("dpi_shard_matches_total{shard=\"0\"} 3"));
    assert!(text.contains("dpi_shard_queue_depth_peak{shard=\"0\"} 2"));

    // Health-state counts: the single instance is healthy.
    assert!(text.contains("dpi_fleet_health{state=\"healthy\"} 1"));
    assert!(text.contains("dpi_fleet_health{state=\"dead\"} 0"));

    // The committed update is visible as the rule generation.
    assert!(text.contains("# TYPE dpi_rule_generation gauge"));
    assert!(text.contains("dpi_rule_generation 1"));

    // The tracer's own buffering health is scrapable.
    assert!(text.contains("dpi_trace_events_buffered"));
    assert!(text.contains("dpi_trace_events_dropped_total 0"));
}
