//! Multi-tenant isolation (DESIGN.md §16):
//!
//! 1. **No cross-tenant match report, ever**, and **each tenant's
//!    verdicts equal those of a dedicated instance**: two tenants drawn
//!    by the spec matrix (`spec/matrix.rs`), judged against a reference
//!    model that knows nothing of the other tenant.
//! 2. **Weighted fairness under asymmetric load**, proven for random
//!    load at worker counts {1, 2, 8}: tenant A offers 16× tenant B's
//!    load into an overloaded instance with fail-open shedding armed.
//!    A's burst sheds A's own traffic; B — below its fair share on every
//!    shard it touches — is never shed and every one of its packets is
//!    scanned.

#[path = "spec/matrix.rs"]
mod matrix;
#[path = "spec/model.rs"]
mod model;

use dpi_service::ac::MiddleboxId;
use dpi_service::core::overload::OverloadPolicy;
use dpi_service::core::TenantId;
use dpi_service::middlebox::antivirus;
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::{FlowKey, MacAddr, Packet};
use dpi_service::{SystemBuilder, SystemHandle};
use matrix::{Fault, Path};
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

/// A shared two-tenant instance: tenant 1 owns the antivirus on chain 0,
/// tenant 2 the one on chain 1.
fn build_shared(workers: usize, overload: OverloadPolicy) -> SystemHandle {
    SystemBuilder::new()
        .with_middlebox(antivirus(MB_A, &[SIG_A.to_vec()]).owned_by(TenantId(1)))
        .with_middlebox(antivirus(MB_B, &[SIG_B.to_vec()]).owned_by(TenantId(2)))
        .with_chain(&[MB_A])
        .with_chain(&[MB_B])
        .with_dpi_workers(workers)
        .with_overload_policy(overload)
        .build()
        .expect("shared system builds")
}

/// Two-tenant cases as drawn, faults included, on both paths: a report
/// to a middlebox off the flow's chain is a fabrication, and each
/// tenant's telemetry counts exactly the matches told to its middleboxes.
#[test]
fn no_cross_tenant_match_report() {
    matrix::sweep(&[Path::Batch, Path::Send], |case| case.config.tenants == 2);
}

/// Loss-free two-tenant cases on both paths: each tenant's verdicts
/// equal the model's, which is a dedicated instance's contract.
#[test]
fn verdict_streams_match_dedicated_instances() {
    matrix::sweep(&[Path::Batch, Path::Send], |case| {
        let c = &mut case.config;
        (c.fault, c.update_at, c.max_flows) = (Fault::None, None, None);
        c.tenants == 2
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tenant A at 16× offered load into an overloaded instance sheds
    /// only its own fail-open traffic. Tenant B's flows
    /// are chosen to share a shard with (much heavier) tenant A flows,
    /// so B stays below its fair share everywhere it appears — and not
    /// one of B's packets may be shed or go unscanned.
    #[test]
    fn overloaded_tenant_sheds_only_itself(b_flows in 1u16..4, rounds in 2u32..5) {
        let policy = OverloadPolicy::queue_only(1, 0);
        for workers in WORKERS {
            let mut sys = build_shared(workers, policy);
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
