//! The `send` path runs the batch pipeline's overload controller and
//! traces through the same shard writers (DESIGN.md §11): per-call
//! traffic passes the one shed decision — fail-closed chains, then the
//! tenant's weighted fair share, then per-tenant attribution — whose CE
//! mark never hides a match from the middlebox, and what
//! an in-network instance records (overload actions, L7 identifications,
//! reassembly conflicts, quarantines) joins the deployment's timeline as
//! `TraceSource::Instance(i)` at the next heartbeat round.
//!
//! Flow ports vary with `DPI_CHAOS_SEED` (CI sweeps 1/7/42); every
//! assertion holds for any seed.

use dpi_service::ac::MiddleboxId;
use dpi_service::core::overload::OverloadPolicy;
use dpi_service::core::{ConflictPolicy, L7Policy, L7Protocol, TenantId};
use dpi_service::middlebox::{ids, ips};
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::FlowKey;
use dpi_service::{SystemBuilder, SystemHandle, TraceKind, TraceSource};

const BURSTER: TenantId = TenantId(1);
const QUIET: TenantId = TenantId(2);

fn seed() -> u16 {
    std::env::var("DPI_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn flow_of(port: u16) -> FlowKey {
    let port = 2000 + (seed().wrapping_mul(31) + port) % 20_000;
    flow([10, 0, 0, 1], port, [10, 0, 0, 2], 80, IpProtocol::Tcp)
}

#[test]
fn quiet_tenant_is_never_shed_on_the_send_path() {
    let mut sys = SystemBuilder::new()
        .with_middlebox(ids(MiddleboxId(1), &[b"burst-sig".to_vec()]).owned_by(BURSTER))
        .with_middlebox(ids(MiddleboxId(2), &[b"quiet-sig".to_vec()]).owned_by(QUIET))
        .with_chain(&[MiddleboxId(1)])
        .with_chain(&[MiddleboxId(2)])
        // Overloaded past 10 arrivals per heartbeat window, clear at 2.
        .with_overload_policy(OverloadPolicy::queue_only(10, 2))
        .build()
        .expect("system builds");
    // Ingress traffic enters the first chain by default; the quiet
    // tenant's flow is steered onto its own.
    let (loud, quiet) = (flow_of(1), flow_of(2));
    sys.tsa
        .steer_flow(sys.chain_ids[1], 0, &quiet, sys.dpi_ports[0]);

    const ROUNDS: u32 = 6;
    for round in 0..ROUNDS {
        // The quiet tenant goes first: even at the head of a window its
        // lifetime share sits far under one half.
        for k in 0..2 {
            sys.send(quiet, round * 1000 + k * 50, b"a quiet-sig payload");
        }
        for k in 0..20 {
            sys.send(loud, round * 1000 + k * 50, b"a burst-sig payload");
        }
        sys.heartbeat_round();
    }

    // Round 0 filled the first window (22 arrivals ≥ 10); every later
    // round ran overloaded. The burster paid for all of it.
    let tenants = sys.tenant_telemetry();
    let of = |t: TenantId| tenants.iter().find(|(id, _)| *id == t).expect("seen").1;
    assert_eq!(of(QUIET).shed_packets, 0, "under its share: never shed");
    assert_eq!(of(QUIET).packets, u64::from(2 * ROUNDS), "all scanned");
    assert_eq!(of(QUIET).matches, u64::from(2 * ROUNDS), "all matched");
    assert_eq!(of(BURSTER).shed_packets, u64::from(20 * (ROUNDS - 1)));
    assert_eq!(of(BURSTER).shed_packets, sys.dpi.lock().total_shed());

    let text = sys.metrics_text();
    assert!(text.contains("dpi_tenant_shed_packets_total{tenant=\"2\"} 0"));
    assert!(text.contains(&format!(
        "dpi_tenant_shed_packets_total{{tenant=\"1\"}} {}",
        20 * (ROUNDS - 1)
    )));
    assert!(text.contains("dpi_instance_overloaded{instance=\"0\"} 1"));

    // The trace says the same, attributed to the instance.
    let mut traced = 0;
    for e in sys.trace_events() {
        if let TraceKind::TenantShed {
            tenant, packets, ..
        } = e.kind
        {
            assert_eq!(e.source, TraceSource::Instance(0));
            assert_eq!(tenant, BURSTER.0, "only the burster is ever shed");
            traced += packets;
        }
    }
    assert_eq!(traced, of(BURSTER).shed_packets);
}

#[test]
fn an_overloaded_instance_still_delivers_the_ips_verdict() {
    let mut blocker = ips(MiddleboxId(1), &[b"evil-sig".to_vec()]);
    blocker.profile = blocker.profile.fail_closed();
    let mut sys = SystemBuilder::new()
        .with_middlebox(blocker)
        .with_chain(&[MiddleboxId(1)])
        // Overloaded once a window holds one arrival; never clears.
        .with_overload_policy(OverloadPolicy::queue_only(1, 0))
        .build()
        .expect("system builds");
    let f = flow_of(5);
    sys.send(f, 0, b"a clean payload");
    sys.heartbeat_round();
    let shards = sys.dpi.lock().overload_state();
    assert!(shards.iter().all(|&(overloaded, _)| overloaded));

    // The fail-closed chain is scanned through overload; the verdict
    // must reach the IPS, which drops the packet.
    sys.send(f, 100, b"an evil-sig inside");
    assert_eq!(sys.dpi_telemetry().matches, 1);
    let stats = sys.stats_of(MiddleboxId(1)).expect("IPS registered");
    assert_eq!(stats.matches, 1, "paired with its result packet");
    assert_eq!(stats.blocked, 1);
    let received = sys.sink.received();
    assert_eq!(received.len(), 1, "only the clean packet reaches the sink");
    assert_eq!(received[0].payload(), Some(&b"a clean payload"[..]));
}

#[test]
fn in_network_scan_events_reach_the_trace_at_the_heartbeat() {
    let mut sys = SystemBuilder::new()
        .with_middlebox(ids(MiddleboxId(1), &[b"evil-sig".to_vec()]))
        .with_chain(&[MiddleboxId(1)])
        .with_dpi_instances(2)
        .with_l7_policy(L7Policy::default())
        .with_conflict_policy(ConflictPolicy::RejectFlow)
        .build()
        .expect("system builds");

    // An HTTP request the L7 layer identifies…
    let http = flow_of(3);
    sys.send(
        http,
        1,
        b"GET /index.html HTTP/1.1\r\nHost: a.example\r\n\r\n",
    );
    // …and a retransmission that disagrees with its first copy: a
    // reassembly conflict, which under RejectFlow quarantines the flow.
    let evasive = flow_of(4);
    sys.send(evasive, 1000, b"0123456789abcdef");
    sys.send(evasive, 1000, b"0123evil-sigcdef");
    let instance_of = |sys: &SystemHandle, f: &FlowKey| {
        TraceSource::Instance(sys.steered_instance_of(f).expect("pinned") as u32)
    };
    assert!(sys
        .dpi_instances
        .iter()
        .any(|d| d.lock().flow_quarantined(&evasive)));

    // The instances buffer what they record; the round folds it in.
    let traced = |sys: &SystemHandle, source, want: fn(&TraceKind) -> bool| {
        sys.trace_events()
            .iter()
            .any(|e| e.source == source && want(&e.kind))
    };
    let identified = |k: &TraceKind| {
        let http1 = L7Protocol::Http1;
        matches!(k, TraceKind::L7Identified { protocol } if *protocol == http1)
    };
    let http_instance = instance_of(&sys, &http);
    assert!(!traced(&sys, http_instance, identified));
    sys.heartbeat_round();
    assert!(traced(&sys, http_instance, identified));
    let evasive_instance = instance_of(&sys, &evasive);
    assert!(traced(&sys, evasive_instance, |k| {
        matches!(k, TraceKind::ReassemblyConflict { bytes } if *bytes > 0)
    }));
    assert!(traced(&sys, evasive_instance, |k| {
        matches!(k, TraceKind::FlowQuarantined { .. })
    }));
}
