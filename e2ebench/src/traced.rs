//! The traced pass: where the per-layer metrics come from.
//!
//! Three parts, all from the benchmark's own side of the public API:
//! end-to-end rounds with one span per entry call (alternated with
//! untraced rounds, so the difference is the tracing overhead and host
//! drift cancels); counters read from the system's public telemetry after
//! a round; and the staged replay of `staged.rs`. End-to-end metrics never
//! come from here.

use crate::report::{metric, LayerTime, Metric, WorkloadResult};
use crate::run::{self, Prepared, Round};
use crate::spans::{self, SpanBuffer};
use crate::staged::{self, Measurements};
use crate::stats;
use crate::sysinfo;
use crate::workloads::Entry;
use dpi_service::core::{ScanEngine, ShardTelemetry, Telemetry};
use dpi_service::SystemHandle;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Traced rounds per run, each paired with an untraced one. Fixed, so
/// the span file has a known size (one span per entry call); the rest of
/// `--seconds` goes to the staged replay.
const TRACED_ROUNDS: usize = 5;

/// What the public telemetry says after a round.
struct Counters {
    telemetry: Telemetry,
    shards: Vec<ShardTelemetry>,
    flow_bytes: u64,
    tracked_flows: usize,
    rules: usize,
    blocked: u64,
}

fn read_counters(sys: &SystemHandle, p: &Prepared) -> Counters {
    let dpi = sys.dpi.lock();
    Counters {
        telemetry: match p.w.entry {
            Entry::Send => dpi.telemetry(),
            Entry::Batch => sys.scanner.telemetry(),
        },
        shards: sys.shard_telemetry(),
        flow_bytes: dpi.flow_bytes(),
        tracked_flows: dpi.tracked_flows(),
        rules: sys.tsa.rule_count(),
        blocked: p
            .w
            .templates
            .iter()
            .filter_map(|t| sys.stats_of(t.profile.id))
            .map(|s| s.blocked)
            .sum(),
    }
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    stats::median(&run::per_round(rounds, f))
}

pub fn run(p: &Prepared, seconds: f64, quick: bool, result: &mut WorkloadResult) {
    let packets = p.w.round.len();
    let call_name = match p.w.entry {
        Entry::Send => "send",
        Entry::Batch => "inspect_batch",
    };
    let sched_before = sysinfo::schedstat();
    let started = Instant::now();

    // Part 1: alternating untraced and traced rounds.
    let calls_per_round = match p.w.entry {
        Entry::Send => packets,
        Entry::Batch => packets.div_ceil(crate::workloads::BATCH),
    };
    // Room for every entry-call span; a span is recorded after its call's
    // end was read, so growth for the replays' spans is never timed.
    let pairs = if quick { 1 } else { TRACED_ROUNDS };
    let mut spans = SpanBuffer::with_capacity(calls_per_round * pairs + 4096);
    let mut calls = Vec::with_capacity(calls_per_round);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut counters = None;
    for pair in 0..pairs {
        let ordinal = 2 * pair;
        untraced.push(run::run_round(p, ordinal, &mut calls, |_, _, _| {}, |_| {}));
        let round_span = spans.open("round", None, ordinal as u64 + 1);
        traced.push(run::run_round(
            p,
            ordinal + 1,
            &mut calls,
            |i, start, end| {
                spans.record(call_name, Some(round_span), i, start, end);
            },
            |sys| counters = Some(read_counters(sys, p)),
        ));
        spans.close(round_span);
    }
    let counters = counters.expect("at least one traced round ran");

    // Part 2: the staged replay, on an engine compiled as the system
    // compiles its own.
    let engine = Arc::new(ScanEngine::new(p.cfg.clone()).expect("the system compiled this"));
    let mut replays: Vec<Measurements> = Vec::new();
    loop {
        replays.push(staged::replay(p, &engine, &mut spans, replays.len() as u64));
        let out_of_time = started.elapsed().as_secs_f64() >= seconds;
        if quick || out_of_time {
            break;
        }
    }
    let staged = |name: &str| -> f64 {
        let values: Vec<f64> = replays
            .iter()
            .filter_map(|r| r.get(name).copied())
            .collect();
        if values.is_empty() {
            0.0 // the layer is not on this workload's path
        } else {
            stats::median(&values)
        }
    };

    // Part 3: the metrics.
    let per_packet = |r: &Round| r.busy_s * 1e9 / packets as f64;
    let send_ns = median_of(&untraced, per_packet);
    let traced_ns = median_of(&traced, per_packet);
    let pps = run::per_round(&untraced, |r| packets as f64 / r.busy_s);
    let deliveries_per_packet = median_of(&traced, |r| r.deliveries as f64 / packets as f64);
    let t = &counters.telemetry;
    let wire_bytes = p.payload_bytes as f64;
    let shard_packets: Vec<f64> = counters.shards.iter().map(|s| s.packets as f64).collect();
    let shard_mean = shard_packets.iter().sum::<f64>() / shard_packets.len().max(1) as f64;
    let is_send = p.w.entry == Entry::Send;

    // The attribution tree, in nanoseconds per packet. Children were
    // timed standalone, so a parent's self time can come out negative.
    let sdn_ns = deliveries_per_packet * staged("sdn.hop_ns");
    // The root's own time is what no layer below accounts for: on batch
    // calls that is the pipeline's dispatch, on `send` it is unattributed.
    let root_name = if is_send { "unattributed" } else { "pipeline" };
    let nodes: [(&'static str, Option<usize>, f64); 11] = [
        (root_name, None, send_ns),
        (
            "packet",
            Some(0),
            if is_send {
                staged("packet.build_ns")
            } else {
                0.0
            },
        ),
        ("sdn", Some(0), sdn_ns),
        ("core.inspect", Some(0), staged("core.inspect_ns")),
        ("reassembly", Some(3), staged("pp.reassembly")),
        ("l7", Some(3), staged("pp.l7")),
        ("core.scan_payload", Some(3), staged("pp.scan_payload")),
        ("kernel", Some(6), staged("pp.kernel")),
        ("arena", Some(6), staged("pp.arena")),
        ("middlebox.node", Some(0), staged("pp.middlebox_node")),
        ("middlebox.process", Some(9), staged("pp.middlebox_process")),
    ];
    let own = spans::self_times(&nodes.iter().map(|(_, p, d)| (*p, *d)).collect::<Vec<_>>());
    result.where_time = nodes
        .iter()
        .zip(&own)
        .map(|((layer, ..), self_ns)| LayerTime {
            layer,
            self_ns: *self_ns,
            share: self_ns / send_ns,
        })
        .collect();

    let bytes_per_flow = if is_send {
        counters.flow_bytes as f64 / counters.tracked_flows.max(1) as f64
    } else {
        staged("arena.scan_state_bytes_per_flow")
    };
    let m = |name: &str, unit: &'static str| metric(name, unit, staged(name));
    let per_layer: Vec<Metric> = vec![
        m("packet.build_ns", "ns"),
        m("packet.serialize_ns", "ns"),
        m("packet.parse_ns", "ns"),
        m("packet.result_encode_ns", "ns"),
        m("packet.result_parse_ns", "ns"),
        m("packet.result_bytes", "B"),
        m("sdn.hop_ns", "ns"),
        metric("sdn.deliveries_per_packet", "count", deliveries_per_packet),
        metric("sdn.rules", "count", counters.rules as f64),
        m("arena.lookup_ns", "ns"),
        m("arena.insert_ns", "ns"),
        m("arena.hit_share", "ratio"),
        metric("arena.evictions", "count", t.flows_evicted as f64),
        metric("arena.bytes_per_flow", "B", bytes_per_flow),
        m("reassembly.push_ns", "ns"),
        m("reassembly.push_ooo_ns", "ns"),
        m("reassembly.runs_per_push", "count"),
        m("reassembly.buffered_peak_bytes", "B"),
        metric(
            "reassembly.conflicts",
            "count",
            t.reassembly_conflicts as f64,
        ),
        m("l7.accept_ns_per_byte", "ns/B"),
        m("l7.inflate_ns_per_byte", "ns/B"),
        metric(
            "l7.decoded_per_wire_byte",
            "ratio",
            t.l7_decoded_bytes as f64 / wire_bytes,
        ),
        metric(
            "l7.flows_identified",
            "count",
            t.l7_flows_identified.iter().sum::<u64>() as f64,
        ),
        m("kernel.ns_per_byte", "ns/B"),
        m("kernel.accepts_per_kb", "1/KB"),
        m("kernel.deep_share", "ratio"),
        m("kernel.table_bytes", "B"),
        m("core.scan_payload_ns", "ns"),
        m("core.inspect_ns", "ns"),
        metric("core.scan_self_ns", "ns", own[6]),
        metric("core.inspect_self_ns", "ns", own[3]),
        metric(
            "core.matches_per_packet",
            "count",
            t.matches as f64 / packets as f64,
        ),
        m("report.compress_ns", "ns"),
        m("report.records_per_result", "count"),
        metric(
            "pipeline.batch_ns_per_packet",
            "ns",
            if is_send { 0.0 } else { send_ns },
        ),
        metric(
            "pipeline.dispatch_self_ns",
            "ns",
            if is_send { 0.0 } else { own[0] },
        ),
        metric(
            "pipeline.peak_queue_depth",
            "count",
            counters
                .shards
                .iter()
                .map(|s| s.peak_queue_depth)
                .max()
                .unwrap_or(0) as f64,
        ),
        metric(
            "pipeline.shard_imbalance",
            "ratio",
            if shard_mean == 0.0 {
                0.0
            } else {
                shard_packets.iter().fold(0.0, |a: f64, b| a.max(*b)) / shard_mean
            },
        ),
        metric(
            "pipeline.lost_scans",
            "count",
            counters.shards.iter().map(|s| s.lost_scans).sum::<u64>() as f64,
        ),
        m("middlebox.process_ns", "ns"),
        m("middlebox.node_ns", "ns"),
        metric(
            "middlebox.blocked_share",
            "ratio",
            counters.blocked as f64 / packets as f64,
        ),
        m("controller.register_s", "s"),
        m("controller.compile_s", "s"),
        m("controller.automaton_states", "count"),
        metric("system.send_ns", "ns", send_ns),
        metric(
            "system.call_p99_us",
            "us",
            median_of(&untraced, |r| r.call_p99_ns / 1e3),
        ),
        metric(
            "system.unattributed_share",
            "ratio",
            if is_send { own[0] / send_ns } else { 0.0 },
        ),
        metric(
            "system.trace_overhead_share",
            "ratio",
            (traced_ns - send_ns) / send_ns,
        ),
        metric("system.round_iqr_share", "ratio", stats::iqr_share(&pps)),
        metric(
            "system.runqueue_wait_share",
            "ratio",
            sysinfo::runqueue_wait_share(sched_before, sysinfo::schedstat()),
        ),
        metric(
            "system.failed_packets",
            "count",
            untraced
                .iter()
                .chain(&traced)
                .map(|r| r.failed)
                .sum::<u64>() as f64,
        ),
    ];

    result.attempted += ((untraced.len() + traced.len()) * packets) as u64;
    result.failed += untraced
        .iter()
        .chain(&traced)
        .map(|r| r.failed)
        .sum::<u64>();
    result.per_layer = per_layer;
    result.traced_rounds = traced.len();
    result.replays = replays.len();

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", p.w.name));
    match spans.write_jsonl(&path) {
        Ok(()) => result.span_file = Some((path, spans.spans().len())),
        Err(e) => eprintln!("{}: {e}", path.display()),
    }
}
