//! Satellite property: a pattern split at *every* possible cut point
//! still matches when the two pieces travel through the sharded
//! pipeline, at 1, 2 and 8 workers, with verdicts identical to scanning
//! the unsegmented stream. Flow-affine dispatch keeps per-flow packet
//! order, so the stateful cross-packet DFA state must bridge any cut —
//! including cuts inside a pattern (DESIGN.md §12's "the worker count
//! may change throughput, never results", sharpened to every boundary).

use dpi_service::core::instance::ScanEngine;
use dpi_service::core::report::expand_records;
use dpi_service::core::{DpiInstance, InstanceConfig, MiddleboxId, MiddleboxProfile, RuleSpec};
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::{FlowKey, MacAddr, Packet};
use std::collections::BTreeSet;
use std::sync::Arc;

const IDS: MiddleboxId = MiddleboxId(1);
const CHAIN: u16 = 5;

/// A long and a short signature, so cuts land both inside and between
/// patterns.
fn config() -> InstanceConfig {
    InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateful(IDS),
            vec![
                RuleSpec::exact(b"needle-alpha".to_vec()),
                RuleSpec::exact(b"zz".to_vec()),
            ],
        )
        .with_chain(CHAIN, vec![IDS])
}

/// The byte stream every flow carries: filler, the long pattern, more
/// filler, the short pattern, a tail.
fn stream() -> Vec<u8> {
    b"padding-needle-alpha-filler-zz-tail".to_vec()
}

fn cut_flow(cut: usize) -> FlowKey {
    flow(
        [10, 0, 0, 1],
        1024 + cut as u16,
        [10, 0, 0, 2],
        80,
        IpProtocol::Tcp,
    )
}

/// The two packets of the flow for `cut`: head `[0, cut)`, tail
/// `[cut, len)`, in order.
fn packets_for_cut(cut: usize, data: &[u8]) -> Vec<Packet> {
    let f = cut_flow(cut);
    [(0usize, &data[..cut]), (cut, &data[cut..])]
        .into_iter()
        .map(|(off, part)| {
            let mut pk = Packet::tcp(
                MacAddr::local(1),
                MacAddr::local(2),
                f,
                1000 + off as u32,
                part.to_vec(),
            );
            pk.push_chain_tag(CHAIN).unwrap();
            pk
        })
        .collect()
}

/// Flow-absolute verdicts `(src_port, pattern, end)` from a slice of
/// result packets.
fn verdicts(results: &[dpi_service::packet::ResultPacket]) -> BTreeSet<(u16, u16, u64)> {
    results
        .iter()
        .flat_map(|r| {
            r.reports.iter().flat_map(move |rep| {
                expand_records(&rep.records)
                    .into_iter()
                    .map(move |(pid, pos)| (r.flow.src_port, pid, r.flow_offset + u64::from(pos)))
            })
        })
        .collect()
}

#[test]
fn every_cut_point_matches_like_the_unsegmented_stream() {
    let data = stream();

    // Oracle: each flow scanned unsegmented through a sequential
    // instance. Every flow carries the same bytes, so the expected
    // (pattern, end) pairs are identical across flows.
    let mut whole = DpiInstance::new(config()).unwrap();
    let mut expected = BTreeSet::new();
    for cut in 1..data.len() {
        let f = cut_flow(cut);
        let out = whole.scan_payload(CHAIN, Some(f), &data).unwrap();
        for r in &out.reports {
            for (pid, pos) in expand_records(&r.records) {
                expected.insert((f.src_port, pid, u64::from(pos)));
            }
        }
        // The stream plants both patterns; a silent oracle would make
        // the equality below vacuous.
        assert_eq!(
            out.reports.iter().map(|r| r.records.len()).sum::<usize>(),
            2,
            "oracle must see both planted patterns"
        );
    }

    for workers in [1usize, 2, 8] {
        let engine = Arc::new(ScanEngine::new(config()).unwrap());
        let mut scanner = DpiInstance::with_workers(engine, workers);
        let mut batch: Vec<Packet> = (1..data.len())
            .flat_map(|cut| packets_for_cut(cut, &data))
            .collect();
        let delivered = scanner.inspect_batch(&mut batch);
        assert_eq!(
            verdicts(&delivered),
            expected,
            "verdicts diverged from the unsegmented oracle at {workers} workers"
        );
    }
}
