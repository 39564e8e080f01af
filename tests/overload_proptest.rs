//! Property: overload control below its watermarks is *free*. With the
//! shed policy armed but load held under the low watermark, the system
//! must behave byte-identically to one with no overload control at all —
//! same results, same packets (no CE marks), no sheds — for random
//! traces at worker counts {1, 2, 8}. And sheds are *impossible* while
//! not overloaded: the detector has to observe a queue past `queue_high`
//! before a single scan may be skipped.

use dpi_service::ac::MiddleboxId;
use dpi_service::core::overload::OverloadPolicy;
use dpi_service::middlebox::antivirus;
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::{MacAddr, Packet};
use dpi_service::{SystemBuilder, SystemHandle};
use proptest::prelude::*;

const AV_ID: MiddleboxId = MiddleboxId(1);
const SIG_A: &[u8] = b"alpha-sig";
const SIG_B: &[u8] = b"beta-sig";

/// One packet of the random trace.
#[derive(Debug, Clone)]
struct TracePkt {
    flow_port: u16,
    /// Bitmask: 1 = alpha, 2 = beta.
    sigs: u8,
    filler: u8,
}

fn payload(p: &TracePkt) -> Vec<u8> {
    // Fillers are letters only, so no signature fragment can be
    // assembled by accident.
    let filler = vec![b'x' + p.filler % 3; 2 + (p.filler as usize % 7)];
    let mut v = filler.clone();
    if p.sigs & 1 != 0 {
        v.extend_from_slice(SIG_A);
        v.extend_from_slice(&filler);
    }
    if p.sigs & 2 != 0 {
        v.extend_from_slice(SIG_B);
        v.extend_from_slice(&filler);
    }
    v
}

fn trace() -> impl Strategy<Value = Vec<TracePkt>> {
    proptest::collection::vec(
        (1000u16..1006, 0u8..4, any::<u8>()).prop_map(|(flow_port, sigs, filler)| TracePkt {
            flow_port,
            sigs,
            filler,
        }),
        1..32,
    )
}

fn build(workers: usize, overload: Option<OverloadPolicy>) -> SystemHandle {
    let mut b = SystemBuilder::new()
        .with_middlebox(antivirus(AV_ID, &[SIG_A.to_vec(), SIG_B.to_vec()]))
        .with_chain(&[AV_ID])
        .with_dpi_workers(workers);
    if let Some(p) = overload {
        b = b.with_overload_policy(p);
    }
    b.build().expect("system builds")
}

fn packet_of(sys: &SystemHandle, p: &TracePkt, seq: u32) -> Packet {
    let f = flow(
        [10, 0, 0, 1],
        p.flow_port,
        [10, 0, 0, 2],
        80,
        IpProtocol::Tcp,
    );
    let mut pkt = Packet::tcp(MacAddr::local(1), MacAddr::local(2), f, seq, payload(p));
    pkt.push_chain_tag(sys.chain_ids[0]).unwrap();
    pkt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Below the watermarks, the armed system is indistinguishable from
    /// the unarmed one: identical results AND identical packets.
    #[test]
    fn overload_below_watermark_is_byte_identical(pkts in trace()) {
        // Default watermarks: queue_high = 192, far above any queue a
        // ≤32-packet trace (in batches of ≤8) can build.
        let policy = OverloadPolicy::default();
        for workers in [1usize, 2, 8] {
            let mut plain = build(workers, None);
            let mut armed = build(workers, Some(policy));
            let mut i = 0u32;
            for chunk in pkts.chunks(8) {
                let mut batch_p: Vec<Packet> = chunk
                    .iter()
                    .enumerate()
                    .map(|(k, p)| packet_of(&plain, p, i + k as u32))
                    .collect();
                let mut batch_a: Vec<Packet> = chunk
                    .iter()
                    .enumerate()
                    .map(|(k, p)| packet_of(&armed, p, i + k as u32))
                    .collect();
                i += chunk.len() as u32;
                let rp = plain.inspect_batch(&mut batch_p);
                let ra = armed.inspect_batch(&mut batch_a);
                prop_assert_eq!(&rp, &ra, "workers={} results diverged", workers);
                prop_assert_eq!(&batch_p, &batch_a, "workers={} packets diverged", workers);
            }
            // No shed, no CE mark ever happened.
            let shards = armed.shard_telemetry();
            prop_assert_eq!(shards.iter().map(|s| s.shed_packets).sum::<u64>(), 0);
            prop_assert_eq!(shards.iter().map(|s| s.ce_marked).sum::<u64>(), 0);
            prop_assert!(armed.scanner.overload_state().iter().all(|(over, _)| !over));
        }
    }

    /// Sheds are impossible while the detector is not overloaded, even
    /// with the most aggressive shed mode armed: every scanned packet
    /// produces exactly the matches the unarmed system produces.
    #[test]
    fn no_shed_without_overload(pkts in trace(), seed_port in 2000u16..2100) {
        let policy = OverloadPolicy::default();
        let mut armed = build(2, Some(policy));
        let mut total = 0u64;
        for (k, p) in pkts.iter().enumerate() {
            let mut q = p.clone();
            q.flow_port = q.flow_port.wrapping_add(seed_port);
            let mut batch = vec![packet_of(&armed, &q, k as u32)];
            armed.inspect_batch(&mut batch);
            total += 1;
            // Invariant holds at every step, not just at the end.
            let shed: u64 = armed.shard_telemetry().iter().map(|s| s.shed_packets).sum();
            prop_assert_eq!(shed, 0, "shed after {} sub-watermark packets", total);
        }
    }
}
