//! Property: a live rule update is *invisible* to patterns present in
//! both generations. For random traces, a random swap point and worker
//! counts {1, 2, 8}, interleaving `apply_update` with `inspect_batch`
//! must stamp every result with the generation of the engine that
//! scanned it, and otherwise produce results identical to:
//!
//! * a never-updated run over the old rule set, for every batch before
//!   the swap, and
//! * a born-with-the-new-rules run, for every batch after the swap.
//!
//! Together these pin both halves of the hitless contract: the swap
//! neither loses nor fabricates matches for stable patterns, and the
//! added pattern behaves exactly as if it had been there from the start.

use dpi_service::ac::MiddleboxId;
use dpi_service::core::RuleSpec;
use dpi_service::middlebox::antivirus;
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::report::ResultPacket;
use dpi_service::packet::{MacAddr, Packet};
use dpi_service::{SystemBuilder, SystemHandle};
use proptest::prelude::*;

const AV_ID: MiddleboxId = MiddleboxId(1);
const STABLE_A: &[u8] = b"alpha-sig";
const STABLE_B: &[u8] = b"beta-sig";
const ADDED: &[u8] = b"gamma-sig";

/// One packet of the random trace.
#[derive(Debug, Clone)]
struct TracePkt {
    flow_port: u16,
    /// Bitmask: 1 = alpha, 2 = beta, 4 = gamma.
    sigs: u8,
    filler: u8,
}

fn payload(p: &TracePkt) -> Vec<u8> {
    // Fillers are letters only, so no signature fragment can be
    // assembled by accident.
    let filler = vec![b'x' + p.filler % 3; 2 + (p.filler as usize % 7)];
    let mut v = filler.clone();
    if p.sigs & 1 != 0 {
        v.extend_from_slice(STABLE_A);
        v.extend_from_slice(&filler);
    }
    if p.sigs & 2 != 0 {
        v.extend_from_slice(STABLE_B);
        v.extend_from_slice(&filler);
    }
    if p.sigs & 4 != 0 {
        v.extend_from_slice(ADDED);
        v.extend_from_slice(&filler);
    }
    v
}

fn trace() -> impl Strategy<Value = Vec<TracePkt>> {
    proptest::collection::vec(
        (1000u16..1004, 0u8..8, any::<u8>()).prop_map(|(flow_port, sigs, filler)| TracePkt {
            flow_port,
            sigs,
            filler,
        }),
        1..24,
    )
}

/// A stateless AV fleet deployment; `with_added` bakes the third
/// signature in from the start (the reference for post-swap batches).
fn build(workers: usize, with_added: bool) -> SystemHandle {
    let mut sigs = vec![STABLE_A.to_vec(), STABLE_B.to_vec()];
    if with_added {
        sigs.push(ADDED.to_vec());
    }
    SystemBuilder::new()
        .with_middlebox(antivirus(AV_ID, &sigs))
        .with_chain(&[AV_ID])
        .with_dpi_workers(workers)
        .build()
        .expect("system builds")
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

/// Strips the packet-id counter. Packet ids number *emitted results*,
/// so a reference run whose extra pattern already matched in the
/// pre-swap prefix is offset by construction; order, flow, offset and
/// every match record must still be identical.
fn normalized(mut results: Vec<ResultPacket>) -> Vec<ResultPacket> {
    for r in &mut results {
        r.packet_id = 0;
    }
    results
}

/// The pre- and post-swap results, and the generation committed.
fn run_interleaved(
    workers: usize,
    pkts: &[TracePkt],
    swap_at: usize,
) -> (Vec<ResultPacket>, Vec<ResultPacket>, u32) {
    let mut sys = build(workers, false);
    let mut before = Vec::new();
    let mut after = Vec::new();
    for (i, p) in pkts.iter().enumerate() {
        if i == swap_at {
            sys.controller
                .add_pattern(AV_ID, 2, &RuleSpec::exact(ADDED.to_vec()))
                .unwrap();
            let outcome = sys.apply_update().unwrap();
            assert!(outcome.committed);
        }
        let mut batch = vec![packet_of(&sys, p, i as u32)];
        let out = sys.inspect_batch(&mut batch);
        if i < swap_at {
            before.extend(out);
        } else {
            after.extend(out);
        }
    }
    if swap_at >= pkts.len() {
        // Swap after the last packet: still exercise the update path.
        sys.controller
            .add_pattern(AV_ID, 2, &RuleSpec::exact(ADDED.to_vec()))
            .unwrap();
        assert!(sys.apply_update().unwrap().committed);
    }
    (before, after, sys.rule_generation())
}

fn run_reference(workers: usize, pkts: &[TracePkt], with_added: bool) -> Vec<ResultPacket> {
    let mut sys = build(workers, with_added);
    let mut out = Vec::new();
    for (i, p) in pkts.iter().enumerate() {
        let mut batch = vec![packet_of(&sys, p, i as u32)];
        out.extend(sys.inspect_batch(&mut batch));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn update_is_invisible_to_stable_patterns(
        pkts in trace(),
        swap_frac in 0u8..=100,
    ) {
        let swap_at = pkts.len() * usize::from(swap_frac) / 100;
        for workers in [1usize, 2, 8] {
            let (before, after, committed) = run_interleaved(workers, &pkts, swap_at);

            // Every result carries the generation of the engine that
            // scanned it.
            prop_assert!(before.iter().all(|r| r.generation == 0), "workers={}", workers);
            prop_assert!(
                after.iter().all(|r| r.generation == committed),
                "workers={} post-swap stamp",
                workers
            );

            // Pre-swap batches: byte-identical to a run that never
            // updates (same generation 0, so no normalization needed).
            let ref_old = run_reference(workers, &pkts[..swap_at], false);
            prop_assert_eq!(&before, &ref_old, "workers={} pre-swap", workers);

            // Post-swap batches: identical to a run born with the added
            // pattern, stamped as the updated fleet stamps it. Packet ids
            // restart per system, so re-number the reference trace to
            // match.
            let ref_new: Vec<ResultPacket> = {
                let mut sys = build(workers, true);
                let mut out = Vec::new();
                for (i, p) in pkts.iter().enumerate() {
                    let mut batch = vec![packet_of(&sys, p, i as u32)];
                    let r = sys.inspect_batch(&mut batch);
                    if i >= swap_at {
                        out.extend(r.into_iter().map(|r| ResultPacket {
                            generation: committed,
                            ..r
                        }));
                    }
                }
                out
            };
            prop_assert_eq!(
                normalized(after),
                normalized(ref_new),
                "workers={} post-swap",
                workers
            );
        }
    }
}
