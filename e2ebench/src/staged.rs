//! The staged replay: one round's input through each layer's public API,
//! in data-path order, timed from outside.
//!
//! Nothing in the program is instrumented. Each layer is driven by itself
//! on the same bytes the end-to-end rounds carry, in blocks of 256 items
//! with one span per block, so the two timer reads cost well under 1 % of
//! what they bracket. Because a layer timed standalone (warm caches, no
//! neighbours) is not the layer inside the system, the layers do not sum
//! to the entry-call time; the traced pass reports the gap rather than
//! hiding it.

use crate::run::Prepared;
use crate::spans::{SpanBuffer, SpanId};
use crate::workloads::Entry;
use dpi_service::ac::kernel::{DepthSamples, ScanKernel};
use dpi_service::ac::Automaton;
use dpi_service::controller::DpiController;
use dpi_service::core::instance::ShardState;
use dpi_service::core::l7::L7Session;
use dpi_service::core::report::expand_records;
use dpi_service::core::{
    compress_matches, gunzip_capped, DpiInstance, FlowArena, InstanceConfig, L7Policy, ScanEngine,
    StreamReassembler, Telemetry,
};
use dpi_service::middlebox::{MiddleboxNode, ServiceMiddlebox};
use dpi_service::packet::{FlowKey, MacAddr, Packet, ResultPacket};
use dpi_service::sdn::network::SinkHost;
use dpi_service::sdn::{Network, Node, PortId, Switch, TrafficSteeringApp};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Items per timed block.
const BLOCK: usize = 256;

/// What a replay measured, by name. Names starting with `pp.` are a
/// layer's total time divided by the packets of the round — the common
/// currency the attribution tree is built in.
pub type Measurements = BTreeMap<&'static str, f64>;

/// One layer's pass over the round: a parent span, one child span per
/// block, and the running totals the metrics are computed from.
struct Stage {
    id: SpanId,
    block_name: &'static str,
    blocks: u64,
    ns: f64,
    ops: u64,
}

impl Stage {
    fn open(
        spans: &mut SpanBuffer,
        root: SpanId,
        name: &'static str,
        block_name: &'static str,
    ) -> Stage {
        Stage {
            id: spans.open(name, Some(root), 0),
            block_name,
            blocks: 0,
            ns: 0.0,
            ops: 0,
        }
    }

    /// Times one block of `ops` operations.
    fn time<R>(&mut self, spans: &mut SpanBuffer, ops: usize, f: impl FnOnce() -> R) -> R {
        self.time_counted(spans, || (ops, f()))
    }

    /// Times one block whose operation count is only known afterwards.
    fn time_counted<R>(&mut self, spans: &mut SpanBuffer, f: impl FnOnce() -> (usize, R)) -> R {
        let start = Instant::now();
        let (ops, r) = f();
        let end = Instant::now();
        spans.record(self.block_name, Some(self.id), self.blocks, start, end);
        self.blocks += 1;
        self.ns += (end - start).as_nanos() as f64;
        self.ops += ops as u64;
        r
    }

    fn per_op(&self) -> f64 {
        ratio(self.ns, self.ops as f64)
    }
}

/// A host that sends every packet straight back: stands in for the DPI
/// node and the middleboxes when only the switch is being timed.
struct Bounce;

impl Node for Bounce {
    fn on_packet(&mut self, packet: Packet, port: PortId) -> Vec<(PortId, Packet)> {
        vec![(port, packet)]
    }
}

/// The addresses `SystemHandle::send` puts on its packets
/// (`MacAddr::local(1)` and `(2)`).
const SRC: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
const DST: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);

/// One unit the scan layers see: a payload, or a decoded L7 unit.
struct Unit {
    flow: FlowKey,
    /// Index into the deployment's chains.
    chain: usize,
    bytes: Vec<u8>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Replays the round once. `engine` is compiled from the system's own
/// configuration (`p.cfg`, the `Auto` kernel).
pub fn replay(
    p: &Prepared,
    engine: &Arc<ScanEngine>,
    spans: &mut SpanBuffer,
    ordinal: u64,
) -> Measurements {
    let root = spans.open("staged", None, ordinal);
    let mut m = Measurements::new();
    let packets = p.w.round.len() as f64;

    packet_layer(p, spans, root, &mut m);
    if p.w.entry == Entry::Send {
        sdn_layer(p, spans, root, &mut m);
    }
    // What the scan layers see: the payloads themselves, or, with L7
    // armed, what reassembly and the decoders make of them.
    let scan_inputs: Vec<Unit> = if p.w.l7 {
        let runs = reassembly_layer(p, spans, root, &mut m);
        l7_layer(p, &runs, spans, root, &mut m)
    } else {
        p.w.round
            .iter()
            .map(|o| Unit {
                flow: o.flow,
                chain: o.chain,
                bytes: o.payload.clone(),
            })
            .collect()
    };
    arena_layer(&scan_inputs, packets, spans, root, &mut m);
    kernel_layer(engine, &scan_inputs, packets, spans, root, &mut m);
    core_layer(p, engine, &scan_inputs, spans, root, &mut m);
    report_layer(&p.reference.results, spans, root, &mut m);
    if p.w.entry == Entry::Send {
        middlebox_layer(p, spans, root, &mut m);
    }
    controller_layer(p, spans, root, &mut m);
    spans.close(root);
    m
}

/// `dpi_packet`: building the packet `send` builds, its wire form, and
/// the result packet's wire form.
fn packet_layer(p: &Prepared, spans: &mut SpanBuffer, root: SpanId, m: &mut Measurements) {
    let mut build = Stage::open(spans, root, "packet.build", "packet.build/block");
    let mut built = Vec::with_capacity(BLOCK);
    for chunk in p.w.round.chunks(BLOCK) {
        build.time(spans, chunk.len(), || {
            for o in chunk {
                built.push(Packet::tcp(SRC, DST, o.flow, o.seq, o.payload.to_vec()));
            }
        });
        black_box(&built);
        built.clear();
    }
    spans.close(build.id);
    m.insert("packet.build_ns", build.per_op());

    let mut serialize = Stage::open(spans, root, "packet.serialize", "packet.serialize/block");
    let mut wire: Vec<Vec<u8>> = Vec::with_capacity(p.tagged.len());
    for chunk in p.tagged.chunks(BLOCK) {
        serialize.time(spans, chunk.len(), || {
            wire.extend(chunk.iter().map(Packet::to_bytes));
        });
    }
    spans.close(serialize.id);
    m.insert("packet.serialize_ns", serialize.per_op());

    let mut parse = Stage::open(spans, root, "packet.parse", "packet.parse/block");
    for chunk in wire.chunks(BLOCK) {
        parse.time(spans, chunk.len(), || {
            for bytes in chunk {
                black_box(Packet::parse(bytes).expect("a serialized packet parses"));
            }
        });
    }
    spans.close(parse.id);
    m.insert("packet.parse_ns", parse.per_op());

    let results = &p.reference.results;
    let mut encode = Stage::open(
        spans,
        root,
        "packet.result_encode",
        "packet.result_encode/block",
    );
    let mut result_wire: Vec<Vec<u8>> = Vec::with_capacity(results.len());
    for chunk in results.chunks(BLOCK) {
        encode.time(spans, chunk.len(), || {
            result_wire.extend(chunk.iter().map(|(_, r)| r.to_bytes()));
        });
    }
    spans.close(encode.id);
    m.insert("packet.result_encode_ns", encode.per_op());

    let mut decode = Stage::open(
        spans,
        root,
        "packet.result_parse",
        "packet.result_parse/block",
    );
    for chunk in result_wire.chunks(BLOCK) {
        decode.time(spans, chunk.len(), || {
            for bytes in chunk {
                black_box(ResultPacket::parse(bytes).expect("a serialized result parses"));
            }
        });
    }
    spans.close(decode.id);
    m.insert("packet.result_parse_ns", decode.per_op());
    let result_bytes: usize = result_wire.iter().map(Vec::len).sum();
    m.insert(
        "packet.result_bytes",
        ratio(result_bytes as f64, result_wire.len() as f64),
    );
}

/// `dpi_sdn`: the real chain rules on a real switch, with hosts that
/// bounce packets where the DPI node and the middleboxes would be. A
/// packet crosses the switch once per chain element plus once to leave.
fn sdn_layer(p: &Prepared, spans: &mut SpanBuffer, root: SpanId, m: &mut Measurements) {
    let members = p.w.chains[0].len();
    let mut net = Network::new(1_000_000);
    let switch = Switch::new("s1");
    let tsa = TrafficSteeringApp::new(&switch);
    let sw = net.add_node(Box::new(switch));
    let sink = net.add_node(Box::new(SinkHost::new()));
    net.link(sw, 1, sink, 0);
    let bounce_ports: Vec<PortId> = (2..2 + 1 + members as PortId).collect();
    for &port in &bounce_ports {
        let id = net.add_node(Box::new(Bounce));
        net.link(sw, port, id, 0);
    }
    tsa.install_chain_fleet(p.chain_ids[0], 0, &bounce_ports[..1], &bounce_ports[1..], 1);

    let mut hops = Stage::open(spans, root, "sdn.hops", "sdn.hops/block");
    let mut block = Vec::with_capacity(BLOCK);
    for chunk in p.w.round.chunks(BLOCK) {
        // Untagged, as `send` injects them; the ingress rule tags.
        block.extend(
            chunk
                .iter()
                .map(|o| Packet::tcp(SRC, DST, o.flow, o.seq, o.payload.clone())),
        );
        hops.time_counted(spans, || {
            let mut deliveries = 0;
            for pkt in block.drain(..) {
                net.inject(sw, 0, pkt);
                deliveries += net.run();
            }
            (deliveries, ())
        });
    }
    spans.close(hops.id);
    assert_eq!(net.dropped(), 0, "the chain rules forward every packet");
    m.insert("sdn.hop_ns", hops.per_op());
}

/// `dpi_core::arena`: the scan-state lookup and store every scanned unit
/// makes, on an arena of the default bound.
fn arena_layer(
    inputs: &[Unit],
    packets: f64,
    spans: &mut SpanBuffer,
    root: SpanId,
    m: &mut Measurements,
) {
    let mut arena = FlowArena::new(InstanceConfig::DEFAULT_MAX_FLOWS);
    let mut lookup = Stage::open(spans, root, "arena.lookup", "arena.lookup/block");
    let mut insert = Stage::open(spans, root, "arena.insert", "arena.insert/block");
    let mut hits = 0u64;
    for chunk in inputs.chunks(BLOCK) {
        hits += lookup.time(spans, chunk.len(), || {
            chunk
                .iter()
                .filter(|u| arena.get_scan_if_generation(&u.flow, 0).is_some())
                .count() as u64
        });
        insert.time(spans, chunk.len(), || {
            for u in chunk {
                arena.put_scan_gen(u.flow, 1, u.bytes.len() as u64, 0);
            }
        });
    }
    spans.close(lookup.id);
    spans.close(insert.id);
    m.insert("arena.lookup_ns", lookup.per_op());
    m.insert("arena.insert_ns", insert.per_op());
    m.insert("arena.hit_share", ratio(hits as f64, lookup.ops as f64));
    m.insert(
        "arena.scan_state_bytes_per_flow",
        ratio(arena.total_bytes() as f64, arena.len() as f64),
    );
    m.insert("pp.arena", (lookup.ns + insert.ns) / packets);
}

/// `dpi_core::reassembly`: every segment through its flow's reassembler.
/// Flows whose segments arrive in order and flows with a swapped pair are
/// timed apart. Returns the in-order runs, in arrival order.
fn reassembly_layer(
    p: &Prepared,
    spans: &mut SpanBuffer,
    root: SpanId,
    m: &mut Measurements,
) -> Vec<(FlowKey, Vec<u8>)> {
    let round = &p.w.round;
    // Which flows are reordered: any segment that is not the next byte.
    let mut slot_of: HashMap<FlowKey, usize> = HashMap::new();
    let mut next_seq: Vec<u32> = Vec::new();
    let mut reordered: Vec<bool> = Vec::new();
    let slots: Vec<usize> = round
        .iter()
        .map(|o| {
            let slot = *slot_of.entry(o.flow).or_insert_with(|| {
                next_seq.push(o.seq);
                reordered.push(false);
                next_seq.len() - 1
            });
            if o.seq == next_seq[slot] {
                next_seq[slot] = o.seq.wrapping_add(o.payload.len() as u32);
            } else {
                reordered[slot] = true;
            }
            slot
        })
        .collect();

    let mut reassemblers: Vec<Option<StreamReassembler>> = Vec::new();
    reassemblers.resize_with(next_seq.len(), || None);
    let mut in_order = Stage::open(spans, root, "reassembly.push", "reassembly.push/block");
    let mut out_of_order = Stage::open(
        spans,
        root,
        "reassembly.push_ooo",
        "reassembly.push_ooo/block",
    );
    let mut runs: Vec<(FlowKey, Vec<u8>)> = Vec::with_capacity(round.len());
    let mut buffered_peak = 0usize;
    for (b, chunk) in round.chunks(BLOCK).enumerate() {
        // Flows are independent, so a block's segments may be pushed
        // class by class without changing what any reassembler sees.
        for (stage, class) in [(&mut in_order, false), (&mut out_of_order, true)] {
            let picked: Vec<usize> = (0..chunk.len())
                .filter(|i| reordered[slots[b * BLOCK + i]] == class)
                .collect();
            stage.time(spans, picked.len(), || {
                for i in &picked {
                    let o = &chunk[*i];
                    let r = reassemblers[slots[b * BLOCK + i]]
                        .get_or_insert_with(|| StreamReassembler::new(o.seq, 1 << 20));
                    for run in r.push(o.seq, &o.payload) {
                        runs.push((o.flow, run));
                    }
                    buffered_peak = buffered_peak.max(r.buffered());
                }
            });
        }
    }
    spans.close(in_order.id);
    spans.close(out_of_order.id);
    let pushes = (in_order.ops + out_of_order.ops) as f64;
    m.insert("reassembly.push_ns", in_order.per_op());
    m.insert("reassembly.push_ooo_ns", out_of_order.per_op());
    m.insert("reassembly.runs_per_push", ratio(runs.len() as f64, pushes));
    m.insert("reassembly.buffered_peak_bytes", buffered_peak as f64);
    m.insert(
        "pp.reassembly",
        (in_order.ns + out_of_order.ns) / round.len() as f64,
    );
    runs
}

/// `dpi_core::l7` and `decompress`: the in-order runs through each
/// flow's decode session, and the gzip bodies through the inflater by
/// themselves. Returns what the decoders hand to the scanner.
fn l7_layer(
    p: &Prepared,
    runs: &[(FlowKey, Vec<u8>)],
    spans: &mut SpanBuffer,
    root: SpanId,
    m: &mut Measurements,
) -> Vec<Unit> {
    let policy = L7Policy::default();
    let mut sessions: HashMap<FlowKey, L7Session> = HashMap::new();
    let mut accept = Stage::open(spans, root, "l7.accept", "l7.accept/block");
    let mut scan_inputs: Vec<Unit> = Vec::with_capacity(runs.len());
    let mut wire_bytes = 0usize;
    for chunk in runs.chunks(BLOCK) {
        for (flow, _) in chunk {
            sessions.entry(*flow).or_default();
        }
        accept.time(spans, chunk.len(), || {
            for (flow, run) in chunk {
                let session = sessions.get_mut(flow).expect("inserted above");
                let ingest = session.accept(run, &policy);
                let decoded = ingest.units.into_iter().map(|u| u.bytes);
                scan_inputs.extend(decoded.chain(ingest.raw).map(|bytes| Unit {
                    flow: *flow,
                    chain: 0,
                    bytes,
                }));
            }
        });
        wire_bytes += chunk.iter().map(|(_, run)| run.len()).sum::<usize>();
    }
    spans.close(accept.id);
    m.insert("l7.accept_ns_per_byte", ratio(accept.ns, wire_bytes as f64));
    m.insert("pp.l7", accept.ns / p.w.round.len() as f64);

    let mut inflate = Stage::open(spans, root, "l7.inflate", "l7.inflate/block");
    let mut inflated = 0usize;
    for chunk in p.w.gzip_bodies.chunks(BLOCK) {
        inflated += inflate.time(spans, chunk.len(), || {
            chunk
                .iter()
                .map(|gz| {
                    let (body, _) = gunzip_capped(gz, 64 << 10).expect("generated gzip inflates");
                    black_box(&body).len()
                })
                .sum::<usize>()
        });
    }
    spans.close(inflate.id);
    m.insert("l7.inflate_ns_per_byte", ratio(inflate.ns, inflated as f64));
    scan_inputs
}

/// `dpi_ac`: the engine's own automaton over every scanned unit, through
/// the same `scan_sampled` entry the engine uses.
fn kernel_layer(
    engine: &ScanEngine,
    inputs: &[Unit],
    packets: f64,
    spans: &mut SpanBuffer,
    root: SpanId,
    m: &mut Measurements,
) {
    let ac = engine.automaton();
    let mut scan = Stage::open(spans, root, "kernel.scan", "kernel.scan/block");
    let mut samples = DepthSamples::default();
    let mut accepts = 0u64;
    let mut bytes = 0usize;
    for chunk in inputs.chunks(BLOCK) {
        scan.time(spans, chunk.len(), || {
            for u in chunk {
                let end = ac.scan_sampled(
                    ac.start(),
                    &u.bytes,
                    Telemetry::SAMPLE,
                    Telemetry::DEEP_DEPTH,
                    &mut samples,
                    &mut |_, _| accepts += 1,
                );
                black_box(end);
            }
        });
        bytes += chunk.iter().map(|u| u.bytes.len()).sum::<usize>();
    }
    spans.close(scan.id);
    m.insert("kernel.ns_per_byte", ratio(scan.ns, bytes as f64));
    m.insert(
        "kernel.accepts_per_kb",
        ratio(accepts as f64 * 1024.0, bytes as f64),
    );
    m.insert(
        "kernel.deep_share",
        ratio(samples.deep as f64, samples.total as f64),
    );
    m.insert("kernel.table_bytes", ac.memory_bytes() as f64);
    m.insert("pp.kernel", scan.ns / packets);
}

/// `dpi_core::instance`: `scan_payload` on every scanned unit, and
/// `inspect` on every tagged packet (with L7 armed, that is the whole
/// reassemble-decode-scan path).
fn core_layer(
    p: &Prepared,
    engine: &Arc<ScanEngine>,
    inputs: &[Unit],
    spans: &mut SpanBuffer,
    root: SpanId,
    m: &mut Measurements,
) {
    let packets = p.w.round.len() as f64;
    let mut scan = Stage::open(spans, root, "core.scan_payload", "core.scan_payload/block");
    let mut shard = ShardState::new(engine);
    for chunk in inputs.chunks(BLOCK) {
        scan.time(spans, chunk.len(), || {
            for u in chunk {
                let out = engine
                    .scan_payload(&mut shard, p.chain_ids[u.chain], Some(u.flow), &u.bytes)
                    .expect("the chain exists");
                black_box(out);
            }
        });
    }
    spans.close(scan.id);
    m.insert("core.scan_payload_ns", scan.per_op());
    m.insert("pp.scan_payload", scan.ns / packets);

    let mut inspect = Stage::open(spans, root, "core.inspect", "core.inspect/block");
    let mut dpi = DpiInstance::from_engine(Arc::clone(engine));
    let mut block: Vec<Packet> = Vec::with_capacity(BLOCK);
    for chunk in p.tagged.chunks(BLOCK) {
        block.clear();
        block.extend_from_slice(chunk);
        inspect.time(spans, chunk.len(), || {
            for pkt in &mut block {
                black_box(dpi.inspect(pkt).expect("tagged for a known chain"));
            }
        });
    }
    spans.close(inspect.id);
    m.insert("core.inspect_ns", inspect.per_op());
}

/// `dpi_core::report`: range compression of each report's match list.
fn report_layer(
    results: &[(usize, ResultPacket)],
    spans: &mut SpanBuffer,
    root: SpanId,
    m: &mut Measurements,
) {
    let lists: Vec<Vec<(u16, u16)>> = results
        .iter()
        .flat_map(|(_, r)| r.reports.iter())
        .map(|rep| expand_records(&rep.records))
        .collect();
    let records: usize = results
        .iter()
        .flat_map(|(_, r)| r.reports.iter())
        .map(|rep| rep.records.len())
        .sum();
    let mut compress = Stage::open(spans, root, "report.compress", "report.compress/block");
    for chunk in lists.chunks(BLOCK) {
        compress.time(spans, chunk.len(), || {
            for list in chunk {
                black_box(compress_matches(list));
            }
        });
    }
    spans.close(compress.id);
    m.insert("report.compress_ns", compress.per_op());
    m.insert(
        "report.records_per_result",
        ratio(records as f64, results.len() as f64),
    );
}

/// `dpi_middlebox`: the rule logic on every packet's report, and the
/// network node around it (pairing data packets with result packets).
fn middlebox_layer(p: &Prepared, spans: &mut SpanBuffer, root: SpanId, m: &mut Measurements) {
    let packets = p.w.round.len() as f64;
    let chain = &p.w.chains[0];
    let template_of = |mb| {
        p.w.templates
            .iter()
            .find(|t| t.profile.id == mb)
            .expect("chains name registered middleboxes")
    };
    let mut result_of: Vec<Option<&ResultPacket>> = vec![None; p.w.round.len()];
    for (i, r) in &p.reference.results {
        result_of[*i] = Some(r);
    }

    let mut boxes: Vec<ServiceMiddlebox> = chain
        .iter()
        .map(|mb| {
            let t = template_of(*mb);
            ServiceMiddlebox::new(*mb, &t.name, t.logic.clone())
        })
        .collect();
    let mut process = Stage::open(spans, root, "middlebox.process", "middlebox.process/block");
    for chunk in result_of.chunks(BLOCK) {
        process.time_counted(spans, || {
            let mut calls = 0;
            for result in chunk {
                for b in &mut boxes {
                    calls += 1;
                    let report = result.and_then(|r| r.report_for(b.id().0));
                    if !b.process(report).forwards() {
                        break;
                    }
                }
            }
            (calls, ())
        });
    }
    spans.close(process.id);
    m.insert("middlebox.process_ns", process.per_op());
    m.insert("pp.middlebox_process", process.ns / packets);

    // The nodes, fed what the DPI node emits: the data packet (marked
    // when it matched) and, right behind it, its result packet.
    let mut nodes: Vec<MiddleboxNode> = chain
        .iter()
        .enumerate()
        .map(|(i, mb)| {
            let t = template_of(*mb);
            let engine = ServiceMiddlebox::new(*mb, &t.name, t.logic.clone());
            MiddleboxNode::new(engine, i + 1 == chain.len()).0
        })
        .collect();
    let mut node = Stage::open(spans, root, "middlebox.node", "middlebox.node/block");
    for (b, chunk) in p.tagged.chunks(BLOCK).enumerate() {
        let mut arriving: Vec<Packet> = Vec::with_capacity(chunk.len() * 2);
        for (i, pkt) in chunk.iter().enumerate() {
            let mut data = pkt.clone();
            let result = result_of[b * BLOCK + i];
            if result.is_some() {
                data.mark_matches();
            }
            arriving.push(data);
            if let Some(r) = result {
                let mut rp = Packet::result(SRC, DST, r.clone());
                rp.push_chain_tag(p.chain_ids[0])
                    .expect("a fresh packet has room for a chain tag");
                arriving.push(rp);
            }
        }
        node.time_counted(spans, || {
            let mut visits = 0;
            for n in &mut nodes {
                visits += arriving
                    .iter()
                    .filter(|pkt| pkt.payload().is_some())
                    .count();
                arriving = std::mem::take(&mut arriving)
                    .into_iter()
                    .flat_map(|pkt| n.on_packet(pkt, 0))
                    .map(|(_, pkt)| pkt)
                    .collect();
            }
            (visits, ())
        });
    }
    spans.close(node.id);
    m.insert("middlebox.node_ns", node.per_op());
    m.insert("pp.middlebox_node", node.ns / packets);
}

/// `dpi_controller` and the engine build: the two halves of
/// `SystemBuilder::build()` that grow with the rule set.
fn controller_layer(p: &Prepared, spans: &mut SpanBuffer, root: SpanId, m: &mut Measurements) {
    let start = Instant::now();
    let controller = DpiController::new();
    for t in &p.w.templates {
        controller
            .register(t.profile.id, &t.name, None, t.profile)
            .expect("template ids are distinct");
        for rule in &t.rules {
            controller
                .add_pattern(t.profile.id, rule.id, &rule.spec)
                .expect("the middlebox was just registered");
        }
    }
    let chains: Vec<u16> =
        p.w.chains
            .iter()
            .map(|c| {
                controller
                    .register_chain(c)
                    .expect("members are registered")
            })
            .collect();
    black_box(
        controller
            .instance_config(&chains)
            .expect("chains are registered"),
    );
    let registered = Instant::now();
    spans.record("controller.register", Some(root), 0, start, registered);
    m.insert("controller.register_s", (registered - start).as_secs_f64());

    let start = Instant::now();
    let engine = ScanEngine::new(p.cfg.clone()).expect("the system compiled this configuration");
    let compiled = Instant::now();
    spans.record("controller.compile", Some(root), 0, start, compiled);
    m.insert("controller.compile_s", (compiled - start).as_secs_f64());
    m.insert(
        "controller.automaton_states",
        engine.automaton().state_count() as f64,
    );
}
