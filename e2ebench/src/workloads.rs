//! The five workloads: their deployments and their seeded round inputs.
//!
//! Every generator derives from the run's `--seed`; the program under
//! test receives only what is generated here. Why each workload exists
//! is recorded once, in [`WORKLOADS`], and repeated in `BENCHMARK.json`
//! and the README.

use dpi_service::ac::MiddleboxId;
use dpi_service::core::{gzip, L7Policy, TenantId};
use dpi_service::middlebox::boxes::MiddleboxTemplate;
use dpi_service::middlebox::{antivirus, ids};
use dpi_service::packet::{FlowKey, MacAddr, Packet};
use dpi_service::traffic::trace::{TraceConfig, TraceKind};
use dpi_service::traffic::{
    flow_pool, http1_chunked_gzip_request, http1_chunked_request, segment_stream, snort_like,
    split_set, tenant_mix, tls_client_hello, websocket_session, TenantStream,
};
use dpi_service::SystemBuilder;
use std::collections::HashSet;

/// Name and one-sentence reason of every workload, in reporting order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "chain_mixed",
        "The paper's scenario: HTTP-like 200-1400 B payloads through send, IDS+AV chain; the scan kernel does most of the work and every layer takes part.",
    ),
    (
        "chain_small",
        "64 B payloads through send: per-packet cost (packet build, switch hops, result delivery, middlebox node) dominates and the kernel does little.",
    ),
    (
        "l7_segments",
        "HTTP/TLS/WebSocket flows cut into <=512 B segments, every 5th flow reordered: the only path through reassembly, protocol identification and the decoders.",
    ),
    (
        "tenant_churn",
        "64 tenants, 131072 flows cycling through the 65536-flow arena by inspect_batch: every packet inserts and evicts flow state; bypasses network and middleboxes.",
    ),
    (
        "sharded_batch",
        "The chain_mixed packets by inspect_batch on 2 workers: thread spawn, channels and result merge on identical bytes.",
    ),
];

/// Packets per `inspect_batch` call in the batch workloads.
pub const BATCH: usize = 256;

/// The paper's Snort1/Snort2 split (Table 2).
const SNORT_TOTAL: usize = 4356;
const SNORT1: usize = 2500;

const IDS: MiddleboxId = MiddleboxId(1);
const AV: MiddleboxId = MiddleboxId(2);
const TENANTS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `SystemHandle::send`, one packet per call, through the network.
    Send,
    /// `SystemHandle::inspect_batch`, [`BATCH`] packets per call.
    Batch,
}

/// One packet of a round, before it is handed to the entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Offered {
    pub flow: FlowKey,
    pub seq: u32,
    pub payload: Vec<u8>,
    /// Index into the deployment's chains (always 0 for `send`).
    pub chain: usize,
}

impl Offered {
    /// The packet `SystemHandle::send` builds for this offer, tagged for
    /// `chain_id` as the ingress switch rule would tag it.
    pub fn tagged_packet(&self, chain_id: u16) -> Packet {
        let mut p = Packet::tcp(
            MacAddr::local(1),
            MacAddr::local(2),
            self.flow,
            self.seq,
            self.payload.clone(),
        );
        p.push_chain_tag(chain_id)
            .expect("a fresh packet has room for a chain tag");
        p
    }
}

pub struct Workload {
    pub name: &'static str,
    pub entry: Entry,
    pub workers: usize,
    pub l7: bool,
    pub templates: Vec<MiddleboxTemplate>,
    pub chains: Vec<Vec<MiddleboxId>>,
    /// One round's input, replayed identically every round.
    pub round: Vec<Offered>,
    /// Pattern occurrences the generator planted, per middlebox that owns
    /// the pattern: a floor for that middlebox's match count.
    pub planted: Vec<(MiddleboxId, u64)>,
    /// The gzip bodies inside the round's streams (`l7_segments` only):
    /// what the inflate layer is timed on by itself.
    pub gzip_bodies: Vec<Vec<u8>>,
    /// Generator parameters, for the results header.
    pub params: String,
}

impl Workload {
    /// The deployment, ready for the timed `build()`: everything a user
    /// gets from `SystemBuilder::new()` plus the workload's middleboxes.
    pub fn builder(&self) -> SystemBuilder {
        let mut b = SystemBuilder::new().with_dpi_workers(self.workers);
        for t in &self.templates {
            b = b.with_middlebox(t.clone());
        }
        for c in &self.chains {
            b = b.with_chain(c);
        }
        if self.l7 {
            b = b.with_l7_policy(L7Policy::default());
        }
        b
    }

    pub fn payload_bytes(&self) -> u64 {
        self.round.iter().map(|o| o.payload.len() as u64).sum()
    }
}

/// Round sizes. `quick` is for the benchmark's own tests only: about
/// 2,000 packets, so nothing it measures is comparable.
struct Sizes {
    mixed_packets: usize,
    small_packets: usize,
    l7_flows: usize,
    tenant_packets: usize,
    tenant_flows: usize,
}

const FULL: Sizes = Sizes {
    mixed_packets: 50_000,
    small_packets: 100_000,
    l7_flows: 5_000,
    tenant_packets: 4_096,
    tenant_flows: 2_048,
};

const QUICK: Sizes = Sizes {
    mixed_packets: 2_000,
    small_packets: 2_000,
    l7_flows: 500,
    tenant_packets: 32,
    tenant_flows: 16,
};

pub fn build(name: &str, seed: u64, quick: bool) -> Option<Workload> {
    let sizes = if quick { &QUICK } else { &FULL };
    match name {
        "chain_mixed" => Some(chain_mixed(
            "chain_mixed",
            Entry::Send,
            1,
            seed,
            sizes.mixed_packets,
        )),
        "chain_small" => Some(chain_small(seed, sizes.small_packets)),
        "l7_segments" => Some(l7_segments(seed, sizes.l7_flows)),
        "tenant_churn" => Some(tenant_churn(seed, sizes.tenant_packets, sizes.tenant_flows)),
        "sharded_batch" => Some(chain_mixed(
            "sharded_batch",
            Entry::Batch,
            2,
            seed,
            sizes.mixed_packets,
        )),
        _ => None,
    }
}

/// SplitMix64: the benchmark's own seeded choices (which packets carry a
/// plant, where). The traffic crate's generators take the seed directly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Snort1 on a stateful IDS, Snort2 on a stateless AV, one chain.
fn ids_av_chain(seed: u64) -> (Vec<MiddleboxTemplate>, Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let all = snort_like(SNORT_TOTAL, seed);
    let (snort1, snort2) = split_set(&all, SNORT1, seed);
    let templates = vec![ids(IDS, &snort1), antivirus(AV, &snort2)];
    (templates, snort1, snort2)
}

/// Spreads payloads round-robin over `flows` in-order flows.
fn in_order_flows(payloads: Vec<Vec<u8>>, flows: usize, seed: u64) -> Vec<Offered> {
    let pool = flow_pool(flows, seed);
    let mut seqs = vec![0u32; flows];
    payloads
        .into_iter()
        .enumerate()
        .map(|(i, payload)| {
            let slot = i % flows;
            let seq = seqs[slot];
            seqs[slot] = seq.wrapping_add(payload.len() as u32);
            Offered {
                flow: pool.get(slot),
                seq,
                payload,
                chain: 0,
            }
        })
        .collect()
}

fn chain_mixed(
    name: &'static str,
    entry: Entry,
    workers: usize,
    seed: u64,
    packets: usize,
) -> Workload {
    let (templates, snort1, snort2) = ids_av_chain(seed);
    let all: Vec<Vec<u8>> = snort1.iter().chain(&snort2).cloned().collect();
    // The generator splices one near-miss prefix per packet; the full
    // patterns are planted below, where they can be counted.
    let mut payloads = TraceConfig {
        kind: TraceKind::Http,
        packets,
        min_payload: 200,
        max_payload: 1400,
        match_density: 0.0,
        prefix_density: 1.0,
        seed,
    }
    .generate(&all);
    let in_snort1: HashSet<&[u8]> = snort1.iter().map(Vec::as_slice).collect();
    let mut rng = Rng(seed ^ 0x504c_414e); // "PLAN"
    let (mut planted_ids, mut planted_av) = (0u64, 0u64);
    for payload in &mut payloads {
        if rng.below(20) != 0 {
            continue;
        }
        let pattern = &all[rng.below(all.len())];
        let at = rng.below(payload.len() - pattern.len() + 1);
        payload[at..at + pattern.len()].copy_from_slice(pattern);
        if in_snort1.contains(pattern.as_slice()) {
            planted_ids += 1;
        } else {
            planted_av += 1;
        }
    }
    Workload {
        name,
        entry,
        workers,
        l7: false,
        templates,
        chains: vec![vec![IDS, AV]],
        round: in_order_flows(payloads, 256, seed),
        planted: vec![(IDS, planted_ids), (AV, planted_av)],
        gzip_bodies: Vec::new(),
        params: format!(
            "{packets} HTTP-like payloads 200-1400 B, 5% planted, prefix density 1.0, 256 in-order flows"
        ),
    }
}

fn chain_small(seed: u64, packets: usize) -> Workload {
    let (templates, ..) = ids_av_chain(seed);
    let payloads = TraceConfig {
        kind: TraceKind::Http,
        packets,
        min_payload: 64,
        max_payload: 64,
        match_density: 0.0,
        prefix_density: 0.0,
        seed,
    }
    .generate(&[]);
    Workload {
        name: "chain_small",
        entry: Entry::Send,
        workers: 1,
        l7: false,
        templates,
        chains: vec![vec![IDS, AV]],
        round: in_order_flows(payloads, 256, seed),
        planted: vec![(IDS, 0), (AV, 0)],
        gzip_bodies: Vec::new(),
        params: format!("{packets} payloads of 64 B, no plants, 256 in-order flows"),
    }
}

/// Flows kept in flight together, so segments of different flows
/// interleave as they would on a tap.
const L7_CONCURRENT: usize = 64;
const L7_MAX_SEGMENT: usize = 512;

fn l7_segments(seed: u64, flows: usize) -> Workload {
    let (templates, snort1, _) = ids_av_chain(seed);
    let pool = flow_pool(flows, seed);
    // Only IDS patterns are planted: the decoders cut bodies into units
    // inside the pattern, and only a stateful middlebox is entitled to a
    // match that spans units.
    let mut gzip_bodies = Vec::new();
    let per_flow: Vec<Vec<Offered>> = (0..flows)
        .map(|i| {
            let flow_seed = seed.wrapping_mul(0x1_0000_0001).wrapping_add(i as u64);
            let pattern = &snort1[i % snort1.len()];
            let stream = match i % 4 {
                0 => {
                    let flow = http1_chunked_gzip_request(flow_seed, pattern);
                    gzip_bodies.push(gzip(&flow.decoded));
                    flow.stream
                }
                1 => http1_chunked_request(flow_seed, pattern).stream,
                2 => {
                    let sni = [b"www.".as_slice(), pattern].concat();
                    tls_client_hello(flow_seed, &sni, 1460).stream
                }
                _ => websocket_session(flow_seed, pattern).stream,
            };
            let mut segments = segment_stream(flow_seed, &stream, L7_MAX_SEGMENT);
            // The first segment stays first (it carries the initial
            // sequence number); the next two arrive swapped.
            if i % 5 == 0 && segments.len() >= 3 {
                segments.swap(1, 2);
            }
            segments
                .into_iter()
                .map(|(off, payload)| Offered {
                    flow: pool.get(i),
                    seq: 1000u32.wrapping_add(off),
                    payload,
                    chain: 0,
                })
                .collect()
        })
        .collect();
    let mut round = Vec::new();
    for group in per_flow.chunks(L7_CONCURRENT) {
        let longest = group.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..longest {
            round.extend(group.iter().filter_map(|segs| segs.get(k).cloned()));
        }
    }
    Workload {
        name: "l7_segments",
        entry: Entry::Send,
        workers: 1,
        l7: true,
        templates,
        chains: vec![vec![IDS, AV]],
        round,
        planted: vec![(IDS, flows as u64), (AV, 0)],
        gzip_bodies,
        params: format!(
            "{flows} flows (gzip-chunked / chunked / TLS hello / WebSocket by i%4), segments <= {L7_MAX_SEGMENT} B, every 5th flow reordered, {L7_CONCURRENT} flows interleaved"
        ),
    }
}

fn tenant_churn(seed: u64, packets_per_tenant: usize, flows_per_tenant: usize) -> Workload {
    let all = snort_like(SNORT_TOTAL, seed);
    let mut templates = Vec::new();
    let mut chains = Vec::new();
    let mut streams = Vec::new();
    let mut planted = Vec::new();
    const PLANT_EVERY: usize = 20;
    for t in 1..=TENANTS as u16 {
        let patterns: Vec<Vec<u8>> = all
            .iter()
            .skip(usize::from(t) - 1)
            .step_by(TENANTS)
            .cloned()
            .collect();
        templates.push(ids(MiddleboxId(t), &patterns).owned_by(TenantId(t)));
        chains.push(vec![MiddleboxId(t)]);
        // The stream's chain tag is only a label here; the run re-tags
        // with the ids the controller assigns.
        streams.push(
            TenantStream::benign(t, packets_per_tenant, flows_per_tenant, 300)
                .with_plant(patterns[0].clone(), PLANT_EVERY),
        );
        planted.push((MiddleboxId(t), (packets_per_tenant / PLANT_EVERY) as u64));
    }
    let round = tenant_mix(&streams, seed)
        .into_iter()
        .map(|p| Offered {
            flow: p.flow_key().expect("generated packets are IPv4"),
            seq: p.tcp_seq().expect("generated packets are TCP"),
            chain: usize::from(p.chain_tag().expect("tenant_mix tags every packet")) - 1,
            payload: p
                .payload()
                .expect("generated packets carry a payload")
                .to_vec(),
        })
        .collect();
    Workload {
        name: "tenant_churn",
        entry: Entry::Batch,
        workers: 1,
        l7: false,
        templates,
        chains,
        round,
        planted,
        gzip_bodies: Vec::new(),
        params: format!(
            "{TENANTS} tenants x {packets_per_tenant} packets x {flows_per_tenant} flows x 300 B, plant every {PLANT_EVERY}th, batches of {BATCH}"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_round_and_other_seed_differs() {
        for (name, _) in WORKLOADS {
            let a = build(name, 42, true).unwrap();
            let b = build(name, 42, true).unwrap();
            let c = build(name, 7, true).unwrap();
            assert_eq!(a.round, b.round, "{name}: same seed");
            assert_eq!(a.planted, b.planted, "{name}: same seed");
            assert_ne!(a.round, c.round, "{name}: another seed");
        }
    }

    #[test]
    fn shapes_match_their_descriptions() {
        let mixed = build("chain_mixed", 42, true).unwrap();
        assert_eq!(mixed.round.len(), 2_000);
        assert!(mixed
            .round
            .iter()
            .all(|o| (200..=1400).contains(&o.payload.len())));
        let planted: u64 = mixed.planted.iter().map(|(_, n)| n).sum();
        assert!((50..=150).contains(&planted), "about 5% of 2000: {planted}");

        let small = build("chain_small", 42, true).unwrap();
        assert!(small.round.iter().all(|o| o.payload.len() == 64));

        let l7 = build("l7_segments", 42, true).unwrap();
        assert!(l7.l7 && l7.round.iter().all(|o| o.payload.len() <= 512));

        let tenants = build("tenant_churn", 42, true).unwrap();
        assert_eq!(tenants.chains.len(), 64);
        assert_eq!(tenants.round.len(), 64 * 32);
        assert!(tenants.round.iter().any(|o| o.chain == 63));

        let sharded = build("sharded_batch", 42, true).unwrap();
        assert_eq!(sharded.round, mixed.round, "identical bytes");
        assert_eq!((sharded.entry, sharded.workers), (Entry::Batch, 2));
        assert!(build("no_such_workload", 42, true).is_none());
    }
}
