//! Multi-tenant isolation properties (DESIGN.md §16), proven for random
//! traces at worker counts {1, 2, 8}:
//!
//! 1. **No cross-tenant match report, ever.** Payloads deliberately
//!    carry *both* tenants' signatures; a result for a packet on tenant
//!    A's chain must only name tenant A's middlebox, no matter what the
//!    bytes contain. Chains are tenant-homogeneous by construction, so
//!    this is structural — the property test is the regression tripwire.
//! 2. **Weighted fairness under asymmetric load.** Tenant A offers 16×
//!    tenant B's load into an overloaded instance with fail-open
//!    shedding armed. A's burst sheds A's own traffic; B — below its
//!    fair share on every shard it touches — is never shed and every one
//!    of its packets is scanned.
//! 3. **Dedicated-instance equivalence.** Each tenant's verdict stream
//!    out of the shared instance is identical (modulo the instance-local
//!    packet ids that number the merged delivery stream) to the stream
//!    the tenant would get running alone on a dedicated instance fed
//!    only its own packets.

use dpi_service::ac::MiddleboxId;
use dpi_service::core::overload::OverloadPolicy;
use dpi_service::core::TenantId;
use dpi_service::middlebox::antivirus;
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::report::ResultPacket;
use dpi_service::packet::{FlowKey, MacAddr, Packet};
use dpi_service::{SystemBuilder, SystemHandle};
use proptest::prelude::*;

const MB_A: MiddleboxId = MiddleboxId(1);
const MB_B: MiddleboxId = MiddleboxId(2);
const SIG_A: &[u8] = b"alpha-sig";
const SIG_B: &[u8] = b"bravo-sig";
const WORKERS: [usize; 3] = [1, 2, 8];

/// Tenant A's flows use source ports 1000+, tenant B's 2000+ — flow keys
/// never collide across tenants, so a result is attributable to its
/// tenant by flow alone.
fn flow_of(tenant_b: bool, idx: u16) -> FlowKey {
    let port = if tenant_b { 2000 } else { 1000 } + idx;
    flow([10, 0, 0, 1], port, [10, 0, 0, 2], 80, IpProtocol::Tcp)
}

fn is_tenant_b(f: &FlowKey) -> bool {
    f.src_port >= 2000
}

/// One packet of the random trace.
#[derive(Debug, Clone)]
struct TracePkt {
    tenant_b: bool,
    flow_idx: u16,
    /// Bitmask: 1 = plant SIG_A, 2 = plant SIG_B (regardless of tenant).
    sigs: u8,
    filler: u8,
}

fn payload(p: &TracePkt) -> Vec<u8> {
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
        (any::<bool>(), 0u16..4, 0u8..4, any::<u8>()).prop_map(
            |(tenant_b, flow_idx, sigs, filler)| TracePkt {
                tenant_b,
                flow_idx,
                sigs,
                filler,
            },
        ),
        1..32,
    )
}

/// A shared two-tenant instance: tenant 1 owns the antivirus on chain 0,
/// tenant 2 the one on chain 1.
fn build_shared(workers: usize, overload: Option<OverloadPolicy>) -> SystemHandle {
    let mut b = SystemBuilder::new()
        .with_middlebox(antivirus(MB_A, &[SIG_A.to_vec()]).owned_by(TenantId(1)))
        .with_middlebox(antivirus(MB_B, &[SIG_B.to_vec()]).owned_by(TenantId(2)))
        .with_chain(&[MB_A])
        .with_chain(&[MB_B])
        .with_dpi_workers(workers);
    if let Some(p) = overload {
        b = b.with_overload_policy(p);
    }
    b.build().expect("shared system builds")
}

/// A dedicated single-tenant instance serving only one tenant's chain.
fn build_dedicated(workers: usize, tenant_b: bool) -> SystemHandle {
    let (mb, sig, tenant) = if tenant_b {
        (MB_B, SIG_B, TenantId(2))
    } else {
        (MB_A, SIG_A, TenantId(1))
    };
    SystemBuilder::new()
        .with_middlebox(antivirus(mb, &[sig.to_vec()]).owned_by(tenant))
        .with_chain(&[mb])
        .with_dpi_workers(workers)
        .build()
        .expect("dedicated system builds")
}

fn packet_of(sys: &SystemHandle, p: &TracePkt, chain_slot: usize, seq: u32) -> Packet {
    let mut pkt = Packet::tcp(
        MacAddr::local(1),
        MacAddr::local(2),
        flow_of(p.tenant_b, p.flow_idx),
        seq,
        payload(p),
    );
    pkt.push_chain_tag(sys.chain_ids[chain_slot]).unwrap();
    pkt
}

/// A verdict stream with the instance-local packet ids masked: the ids
/// number the instance's merged delivery stream, so they are the one
/// field that legitimately differs between a shared and a dedicated
/// deployment.
fn masked(results: &[ResultPacket]) -> Vec<ResultPacket> {
    results
        .iter()
        .cloned()
        .map(|mut r| {
            r.packet_id = 0;
            r
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 1: payloads carrying BOTH tenants' signatures produce
    /// results that only ever name the owning tenant's middlebox.
    #[test]
    fn no_cross_tenant_match_report(pkts in trace()) {
        for workers in WORKERS {
            let mut sys = build_shared(workers, None);
            let mut batch: Vec<Packet> = pkts
                .iter()
                .enumerate()
                .map(|(k, p)| packet_of(&sys, p, usize::from(p.tenant_b), k as u32))
                .collect();
            let results = sys.inspect_batch(&mut batch);
            for r in &results {
                let owner = if is_tenant_b(&r.flow) { MB_B } else { MB_A };
                for rep in &r.reports {
                    prop_assert_eq!(
                        rep.middlebox_id, owner.0,
                        "workers={}: result for tenant flow {:?} names middlebox {}",
                        workers, r.flow, rep.middlebox_id
                    );
                }
            }
            // The per-tenant counters attribute every match to its owner:
            // their sum equals the total, and a tenant with no planted
            // signature of its own reports none.
            let total: u64 = results.iter().flat_map(|r| &r.reports).map(|m| m.records.len() as u64).sum();
            let per_tenant: u64 = sys
                .tenant_telemetry()
                .iter()
                .map(|(_, c)| c.matches)
                .sum();
            prop_assert_eq!(per_tenant, total);
        }
    }

    /// Property 3: each tenant's verdict stream out of the shared
    /// instance is identical to running alone on a dedicated instance.
    #[test]
    fn verdict_streams_match_dedicated_instances(pkts in trace()) {
        for workers in WORKERS {
            let mut shared = build_shared(workers, None);
            let mut batch: Vec<Packet> = pkts
                .iter()
                .enumerate()
                .map(|(k, p)| packet_of(&shared, p, usize::from(p.tenant_b), k as u32))
                .collect();
            let shared_results = shared.inspect_batch(&mut batch);

            for tenant_b in [false, true] {
                let mut dedicated = build_dedicated(workers, tenant_b);
                let mut alone: Vec<Packet> = pkts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.tenant_b == tenant_b)
                    .map(|(k, p)| packet_of(&dedicated, p, 0, k as u32))
                    .collect();
                let alone_results = dedicated.inspect_batch(&mut alone);
                let sliced: Vec<ResultPacket> = shared_results
                    .iter()
                    .filter(|r| is_tenant_b(&r.flow) == tenant_b)
                    .cloned()
                    .collect();
                prop_assert_eq!(
                    masked(&sliced),
                    masked(&alone_results),
                    "workers={} tenant_b={}: shared verdicts diverge from dedicated",
                    workers,
                    tenant_b
                );
            }
        }
    }

    /// Property 2: tenant A at 16× offered load into an overloaded
    /// instance sheds only its own fail-open traffic. Tenant B's flows
    /// are chosen to share a shard with (much heavier) tenant A flows,
    /// so B stays below its fair share everywhere it appears — and not
    /// one of B's packets may be shed or go unscanned.
    #[test]
    fn overloaded_tenant_sheds_only_itself(b_flows in 1u16..4, rounds in 2u32..5) {
        let policy = OverloadPolicy::queue_only(1, 0);
        for workers in WORKERS {
            let mut sys = build_shared(workers, Some(policy));
            // For every B flow pick an A flow on the same shard, so each
            // shard that carries B traffic also carries 16× A traffic.
            let pairs: Vec<(FlowKey, FlowKey)> = (0..b_flows)
                .map(|i| {
                    let fb = flow_of(true, i);
                    let shard = sys.scanner.shard_of(&fb);
                    let fa = (0u16..512)
                        .map(|j| flow_of(false, j))
                        .find(|fa| sys.scanner.shard_of(fa) == shard)
                        .expect("some A flow hashes to the same shard");
                    (fa, fb)
                })
                .collect();

            let mut b_sent = 0u64;
            let mut seq = 0u32;
            for _ in 0..rounds {
                let mut batch = Vec::new();
                for (fa, fb) in &pairs {
                    // 16 A packets per B packet, A first: the burst
                    // builds the queue that trips the detector.
                    for _ in 0..16 {
                        let mut pkt = Packet::tcp(
                            MacAddr::local(1),
                            MacAddr::local(2),
                            *fa,
                            seq,
                            [b"aaaa ", SIG_A, b" aaaa"].concat(),
                        );
                        pkt.push_chain_tag(sys.chain_ids[0]).unwrap();
                        batch.push(pkt);
                        seq += 1;
                    }
                    let mut pkt = Packet::tcp(
                        MacAddr::local(1),
                        MacAddr::local(2),
                        *fb,
                        seq,
                        [b"bbbb ", SIG_B, b" bbbb"].concat(),
                    );
                    pkt.push_chain_tag(sys.chain_ids[1]).unwrap();
                    batch.push(pkt);
                    b_sent += 1;
                    seq += 1;
                }
                let results = sys.inspect_batch(&mut batch);
                // Every B packet planted SIG_B: its verdict must be in
                // this batch's results — shedding it would be a miss.
                let b_verdicts = results.iter().filter(|r| is_tenant_b(&r.flow)).count();
                let b_in_batch = pairs.len();
                prop_assert_eq!(
                    b_verdicts, b_in_batch,
                    "workers={}: tenant B lost verdicts under tenant A's burst",
                    workers
                );
            }

            let tt = sys.tenant_telemetry();
            let of = |t: u16| tt.iter().find(|(id, _)| id.0 == t).map(|(_, c)| *c).unwrap_or_default();
            let (a, b) = (of(1), of(2));
            prop_assert_eq!(b.shed_packets, 0, "workers={}: tenant B was shed", workers);
            prop_assert_eq!(b.packets, b_sent, "workers={}: tenant B not fully scanned", workers);
            prop_assert!(
                a.shed_packets > 0,
                "workers={}: the 16× burst never tripped shedding (A scanned {})",
                workers,
                a.packets
            );
        }
    }
}
