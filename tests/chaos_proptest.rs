//! Property: no fault plan can fabricate a match. Instance kills, shard
//! panics, result loss and duplication may all *lose* verdicts (the
//! accepted failover semantics), but a match report only ever exists for
//! a payload that really contains the pattern — the fail-closed half of
//! the resilience contract, checked over random traces and fault plans.

use dpi_service::ac::MiddleboxId;
use dpi_service::controller::HealthPolicy;
use dpi_service::core::chaos::FaultPlan;
use dpi_service::core::instance::ScanEngine;
use dpi_service::core::{DpiInstance, InstanceConfig, MiddleboxProfile, RuleSpec};
use dpi_service::middlebox::ids;
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::{flow, PacketBody};
use dpi_service::packet::{MacAddr, Packet};
use dpi_service::SystemBuilder;
use proptest::prelude::*;
use std::sync::Arc;

const IDS_ID: MiddleboxId = MiddleboxId(1);
const SIG: &[u8] = b"evil-sig";

/// One packet of the random trace: which flow it belongs to, whether it
/// really carries the signature, and some filler variety.
#[derive(Debug, Clone)]
struct TracePkt {
    flow_port: u16,
    has_sig: bool,
    filler: u8,
}

fn payload(p: &TracePkt) -> Vec<u8> {
    // Fillers are letters only — no fragment of "evil-sig" can be
    // assembled across packet boundaries by accident.
    let filler = vec![b'a' + p.filler % 26; 3 + (p.filler as usize % 9)];
    if p.has_sig {
        let mut v = filler.clone();
        v.extend_from_slice(SIG);
        v.extend_from_slice(&filler);
        v
    } else {
        filler
    }
}

/// Random fault-plan ingredients (the plan itself is assembled in the
/// test so shrinking stays meaningful).
#[derive(Debug, Clone)]
struct PlanSpec {
    seed: u64,
    kills: Vec<(usize, u64)>,
    panics: Vec<(usize, u64)>,
    drop_p: f64,
    dup_p: f64,
}

fn plan_spec() -> impl Strategy<Value = PlanSpec> {
    (
        any::<u64>(),
        proptest::collection::vec((0usize..3, 0u64..8), 0..3),
        proptest::collection::vec((0usize..8, 0u64..6), 0..3),
        0u32..=100,
        0u32..=100,
    )
        .prop_map(|(seed, kills, panics, drop_pct, dup_pct)| PlanSpec {
            seed,
            kills,
            panics,
            drop_p: f64::from(drop_pct) / 100.0,
            dup_p: f64::from(dup_pct) / 100.0,
        })
}

fn trace() -> impl Strategy<Value = Vec<TracePkt>> {
    proptest::collection::vec(
        (1000u16..1006, any::<bool>(), any::<u8>()).prop_map(|(flow_port, has_sig, filler)| {
            TracePkt {
                flow_port,
                has_sig,
                filler,
            }
        }),
        1..32,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whole-system invariant: however the fleet is tortured, the IDS
    /// never reports more matches than signatures actually sent, and no
    /// result packet ever escapes to the destination host.
    #[test]
    fn no_fault_plan_yields_a_false_match_end_to_end(
        spec in plan_spec(),
        pkts in trace(),
    ) {
        let mut plan = FaultPlan::new(spec.seed)
            .drop_result_packets(spec.drop_p)
            .duplicate_result_packets(spec.dup_p);
        for &(i, k) in &spec.kills {
            plan = plan.kill_instance_at_packet(i, k);
        }
        let mut sys = SystemBuilder::new()
            .with_middlebox(ids(IDS_ID, &[SIG.to_vec()]))
            .with_chain(&[IDS_ID])
            .with_dpi_instances(3)
            .with_health_policy(HealthPolicy { suspect_after: 1, dead_after: 2 })
            .with_chaos(plan)
            .build()
            .unwrap();

        let mut sig_sent = 0u64;
        for (i, p) in pkts.iter().enumerate() {
            let f = flow([10, 0, 0, 1], p.flow_port, [10, 0, 0, 2], 80, IpProtocol::Tcp);
            sys.send(f, i as u32 * 1000, &payload(p));
            sig_sent += u64::from(p.has_sig);
            if i % 3 == 2 {
                sys.heartbeat_round();
            }
        }
        // Let any pending deaths finish failing over.
        for _ in 0..3 {
            sys.heartbeat_round();
        }

        let st = sys.stats_of(IDS_ID).unwrap();
        prop_assert!(
            st.matches <= sig_sent,
            "false match: {} reported, only {} signatures sent (trace: {})",
            st.matches, sig_sent, sys.trace_jsonl()
        );
        for p in sys.sink.received() {
            prop_assert!(matches!(p.body, PacketBody::Ipv4 { .. }), "result leaked to host");
            prop_assert!(p.vlan.is_empty(), "chain tag leaked to host");
        }
        prop_assert_eq!(sys.net.dropped(), 0);
    }

    /// Pipeline invariant: shard panics lose scans but every verdict the
    /// supervised scanner does deliver exists in a fault-free sequential
    /// run of the same trace.
    #[test]
    fn panicking_shards_never_fabricate_pipeline_verdicts(
        spec in plan_spec(),
        pkts in trace(),
        workers in 1usize..8,
    ) {
        let engine = Arc::new(ScanEngine::new(
            InstanceConfig::new()
                .with_middlebox(
                    MiddleboxProfile::stateless(IDS_ID),
                    vec![RuleSpec::exact(SIG.to_vec())],
                )
                .with_chain(5, vec![IDS_ID]),
        ).unwrap());

        let mut batch: Vec<Packet> = pkts.iter().enumerate().map(|(i, p)| {
            let f = flow([10, 0, 0, 1], p.flow_port, [10, 0, 0, 2], 80, IpProtocol::Tcp);
            let mut pk = Packet::tcp(MacAddr::local(1), MacAddr::local(2), f, i as u32 * 1000, payload(p));
            pk.push_chain_tag(5).unwrap();
            pk
        }).collect();

        // Fault-free sequential reference.
        let mut seq = DpiInstance::from_engine(engine.clone());
        let mut reference = Vec::new();
        for p in &batch {
            let mut c = p.clone();
            if let Some(mut r) = seq.inspect(&mut c).unwrap() {
                r.packet_id = 0;
                reference.push(r);
            }
        }

        let mut plan = FaultPlan::new(spec.seed);
        for &(s, at) in &spec.panics {
            plan = plan.panic_shard(s, at);
        }
        let mut scanner = DpiInstance::with_workers(engine, workers);
        scanner.inject_shard_faults(&plan.shard_faults);
        let delivered = scanner.inspect_batch(&mut batch);

        // Ordered-subsequence check: nothing fabricated, nothing reordered.
        let mut it = reference.iter();
        for d in &delivered {
            let mut d = d.clone();
            d.packet_id = 0;
            prop_assert!(
                it.any(|r| *r == d),
                "verdict {:?} does not exist in the fault-free sequential run", d
            );
        }
    }
}
