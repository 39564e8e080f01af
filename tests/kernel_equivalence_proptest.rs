//! Property: the scan kernel is invisible end-to-end. For every
//! [`KernelKind`], running a random trace through the sharded pipeline —
//! at 1 worker (the inline no-channel fast path), 2 and 8 workers — must
//! deliver exactly the verdicts of a fault-free sequential scan on the
//! naive reference kernel. The kernel flag may change throughput,
//! never results (DESIGN.md §12).

use dpi_service::ac::{KernelKind, MiddleboxId};
use dpi_service::core::instance::ScanEngine;
use dpi_service::core::{DpiInstance, InstanceConfig, MiddleboxProfile, RuleSpec};
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::{MacAddr, Packet};
use proptest::prelude::*;
use std::sync::Arc;

const IDS_ID: MiddleboxId = MiddleboxId(1);
const IPS_ID: MiddleboxId = MiddleboxId(2);

/// A long literal, a rare-byte short one, and a two-byte pattern that
/// overlaps itself.
fn signatures() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    (
        vec![b"evil|sig".to_vec(), b"qz%".to_vec()],
        vec![b"zz".to_vec()],
    )
}

fn config(kernel: KernelKind) -> InstanceConfig {
    let (ids_sigs, ips_sigs) = signatures();
    InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateless(IDS_ID),
            ids_sigs
                .iter()
                .map(|s| RuleSpec::exact(s.clone()))
                .collect(),
        )
        .with_middlebox(
            MiddleboxProfile::stateless(IPS_ID),
            ips_sigs
                .iter()
                .map(|s| RuleSpec::exact(s.clone()))
                .collect(),
        )
        .with_chain(5, vec![IDS_ID, IPS_ID])
        .with_kernel(kernel)
}

/// One packet: flow selector, planted signature (if any) and where,
/// filler style, length.
#[derive(Debug, Clone)]
struct TracePkt {
    flow_port: u16,
    plant: u8,
    filler: u8,
    len: u16,
    at: u16,
}

/// Up to 1,400 B of one filler byte — long enough for the scan to be cut
/// into lanes, and a run of `z` matches `zz` in every one of them — with
/// the signature spliced in anywhere, lane boundaries included.
fn payload(p: &TracePkt) -> Vec<u8> {
    let mut v = vec![b'a' + p.filler % 26; p.len as usize % 1401];
    let at = p.at as usize % (v.len() + 1);
    let planted: &[u8] = match p.plant % 4 {
        0 => b"evil|sig",
        1 => b"qz%",
        2 => b"zz",
        _ => b"",
    };
    v.splice(at..at, planted.iter().copied());
    v
}

fn trace() -> impl Strategy<Value = Vec<TracePkt>> {
    proptest::collection::vec(
        (
            1000u16..1008,
            any::<u8>(),
            any::<u8>(),
            any::<u16>(),
            any::<u16>(),
        )
            .prop_map(|(flow_port, plant, filler, len, at)| TracePkt {
                flow_port,
                plant,
                filler,
                len,
                at,
            }),
        1..40,
    )
}

fn batch(pkts: &[TracePkt]) -> Vec<Packet> {
    pkts.iter()
        .enumerate()
        .map(|(i, p)| {
            let f = flow(
                [10, 0, 0, 1],
                p.flow_port,
                [10, 0, 0, 2],
                80,
                IpProtocol::Tcp,
            );
            let mut pk = Packet::tcp(
                MacAddr::local(1),
                MacAddr::local(2),
                f,
                i as u32 * 1000,
                payload(p),
            );
            pk.push_chain_tag(5).unwrap();
            pk
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_kernel_and_worker_count_delivers_sequential_verdicts(
        pkts in trace(),
        workers in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        // Fault-free sequential reference on the naive kernel.
        let mut seq = DpiInstance::new(config(KernelKind::Naive)).unwrap();
        let mut reference = Vec::new();
        for p in &batch(&pkts) {
            let mut c = p.clone();
            if let Some(mut r) = seq.inspect(&mut c).unwrap() {
                r.packet_id = 0;
                reference.push(r);
            }
        }

        for kind in KernelKind::ALL {
            let engine = Arc::new(ScanEngine::new(config(kind)).unwrap());
            let mut scanner = DpiInstance::with_workers(engine, workers);
            let mut b = batch(&pkts);
            let mut delivered = scanner.inspect_batch(&mut b);
            for d in &mut delivered {
                d.packet_id = 0;
            }
            prop_assert_eq!(
                &delivered, &reference,
                "kernel {} with {} workers diverged from the sequential reference",
                kind, workers
            );
        }
    }
}
