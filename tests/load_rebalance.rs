//! Telemetry-driven fleet rebalancing, end to end: a seeded hot/cold
//! skew across a two-instance fleet must *converge* (the hot instance
//! drops back under its overload watermark within a bounded number of
//! heartbeat rounds), must never *flap* (no flow migrates more than
//! once), and under a test-scripted 10× traffic burst the overload shed
//! policy must never touch fail-closed verdict traffic — it sheds
//! fail-open scans only, and every shed and CE-mark is visible in the
//! trace timeline.

use dpi_service::ac::MiddleboxId;
use dpi_service::controller::BalancePolicy;
use dpi_service::core::chaos::FaultPlan;
use dpi_service::core::overload::OverloadPolicy;
use dpi_service::core::DpiInstance;
use dpi_service::middlebox::ids;
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::FlowKey;
use dpi_service::{SystemBuilder, SystemHandle, TraceKind, TraceSource};
use std::collections::BTreeMap;

const IDS_ID: MiddleboxId = MiddleboxId(1);
const SIG: &[u8] = b"evil-sig";

fn flow_of(port: u16) -> FlowKey {
    flow([10, 0, 0, 1], port, [10, 0, 0, 2], 80, IpProtocol::Tcp)
}

/// What a seed replays of the trace: per source, the seq-ordered kinds
/// with wall-clock fields zeroed (seq order across sources is not
/// deterministic). A ring that dropped events compares nothing.
fn replayed(sys: &SystemHandle) -> BTreeMap<String, Vec<TraceKind>> {
    assert_eq!(sys.tracer().dropped(), 0, "the trace ring overflowed");
    let mut by_source: BTreeMap<String, Vec<TraceKind>> = BTreeMap::new();
    for e in sys.trace_events() {
        let kind = match e.kind {
            TraceKind::BatchEnd { results, .. } => TraceKind::BatchEnd {
                results,
                duration_us: 0,
            },
            TraceKind::EngineSwapped {
                from_generation,
                to_generation,
                kernel,
                ..
            } => TraceKind::EngineSwapped {
                from_generation,
                to_generation,
                pause_us: 0,
                kernel,
            },
            k => k,
        };
        by_source
            .entry(format!("{:?}", e.source))
            .or_default()
            .push(kind);
    }
    by_source
}

/// A two-instance fleet with overload control and rebalancing armed.
/// Instance-level watermarks: overloaded past 50 packets/window, clear
/// at 45.
fn build_fleet(seed: u64) -> SystemHandle {
    SystemBuilder::new()
        .with_middlebox(ids(IDS_ID, &[SIG.to_vec()]))
        .with_chain(&[IDS_ID])
        .with_dpi_instances(2)
        .with_overload_policy(OverloadPolicy::queue_only(50, 45))
        .with_balance_policy(BalancePolicy {
            load_high: 40,
            min_imbalance: 1.5,
            migration_budget: 1,
            cooldown_rounds: 8,
        })
        .with_chaos(FaultPlan::new(seed))
        .build()
        .expect("fleet builds")
}

/// Runs the skew scenario for one seed: 4 heavy flows pinned to one
/// instance, 4 light flows to the other, driven for `rounds` heartbeat
/// rounds. Returns (system, heavy flows, per-round pinning history).
fn run_skew(seed: u64, rounds: usize) -> (SystemHandle, Vec<FlowKey>, Vec<Vec<usize>>) {
    let mut sys = build_fleet(seed);
    // Seed-dependent ports so flow hashes differ per seed, drawn until
    // the switch puts four flows on each instance.
    let mut on: [Vec<FlowKey>; 2] = Default::default();
    let mut port = 1000 + (seed as u16).wrapping_mul(31) % 500;
    while on.iter().any(|flows| flows.len() < 4) {
        let f = flow_of(port);
        port += 7;
        let flows = &mut on[sys.steered_instance_of(&f).expect("hashed")];
        if flows.len() < 4 {
            flows.push(f);
        }
    }
    // Heavy flows: exactly the ones on one instance — a pure hot/cold
    // split.
    let [heavy, light] = on;
    let flows: Vec<FlowKey> = heavy.iter().chain(&light).copied().collect();
    for f in &flows {
        // High seq so round traffic (seq < 1000) never collides.
        sys.send(*f, 1_000_000, b"open this flow");
    }

    let mut history: Vec<Vec<usize>> = Vec::new();
    for round in 0..rounds {
        // Heavy flows carry 20 packets per round wherever they are
        // steered; light flows carry 1.
        for f in &heavy {
            for k in 0..20u32 {
                sys.send(*f, round as u32 * 100 + k, b"bulk payload data");
            }
        }
        for f in &light {
            sys.send(*f, round as u32, b"quiet");
        }
        sys.heartbeat_round();
        history.push(
            flows
                .iter()
                .map(|f| sys.steered_instance_of(f).expect("steered"))
                .collect(),
        );
    }
    (sys, heavy, history)
}

#[test]
fn skew_converges_and_never_flaps() {
    for seed in [1u64, 7, 42] {
        let (sys, _heavy, history) = run_skew(seed, 10);

        // Convergence: flows moved hot → cold until the windows leveled.
        assert!(
            sys.rebalance_migrations() >= 1,
            "seed {seed}: the balancer must act on a 20x skew"
        );
        // The hot instance ends the run under its watermark: its
        // detector is not overloaded over the last three rounds' windows
        // (the converged 2-heavy/2-heavy split is 40 packets/window ≤
        // the clear mark of 45).
        for d in &sys.dpi_instances {
            assert!(
                d.lock().overload_state().iter().all(|(over, _)| !over),
                "seed {seed}: fleet still overloaded after 10 rounds"
            );
        }

        // Zero flap: no flow is ever steered back — each flow changes
        // instance at most once across the whole run.
        for flow_idx in 0..history[0].len() {
            let mut moves = 0;
            for r in 1..history.len() {
                if history[r][flow_idx] != history[r - 1][flow_idx] {
                    moves += 1;
                }
            }
            assert!(
                moves <= 1,
                "seed {seed}: flow {flow_idx} migrated {moves} times (flap)"
            );
        }

        // The migrations are visible in the trace timeline, and the
        // count there matches the balancer's own.
        let traced: u64 = sys
            .trace_events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::FlowsRebalanced { flows, .. } => Some(flows),
                _ => None,
            })
            .sum();
        assert_eq!(
            traced,
            sys.rebalance_migrations(),
            "seed {seed}: every migration must appear in the trace"
        );
    }
}

#[test]
fn rebalance_is_deterministic_per_seed() {
    let run = |seed| {
        let (sys, _, history) = run_skew(seed, 8);
        (sys.rebalance_migrations(), history, replayed(&sys))
    };
    assert_eq!(run(7), run(7));
}

/// Builds a single-chain fleet whose middlebox demands verdicts
/// (fail-closed) or tolerates missing ones (fail-open), with tight
/// instance watermarks so a 10× burst drives the fleet into overload.
fn build_burst(fail_closed: bool) -> SystemHandle {
    let mut t = ids(IDS_ID, &[SIG.to_vec()]);
    if fail_closed {
        t.profile = t.profile.fail_closed();
    }
    SystemBuilder::new()
        .with_middlebox(t)
        .with_chain(&[IDS_ID])
        .with_dpi_instances(2)
        .with_overload_policy(OverloadPolicy::queue_only(30, 10))
        .build()
        .expect("fleet builds")
}

/// One of the fleet instances' overload counters, summed over the fleet.
fn total(sys: &SystemHandle, counter: fn(&DpiInstance) -> u64) -> u64 {
    sys.dpi_instances.iter().map(|d| counter(&d.lock())).sum()
}

/// Offers 6 source packets per flow per round, scripting a 10× burst:
/// the first 2 of every 4 source packets are each sent 10 times. Over
/// the source ordinal the phases run [10,10,1,1,...], so the first
/// flow's window sums to 33 copies — past the high watermark of 30 —
/// while the quiet phases keep the other under it.
fn drive_burst(sys: &mut SystemHandle) {
    let flows = [flow_of(3000), flow_of(3001)];
    let mut ordinal = 0u32;
    for round in 0..12u32 {
        for (i, f) in flows.iter().enumerate() {
            for k in 0..6u32 {
                let copies = if ordinal % 4 < 2 { 10 } else { 1 };
                ordinal += 1;
                for _ in 0..copies {
                    sys.send(*f, round * 100 + i as u32 * 10 + k, b"an evil-sig inside");
                }
            }
        }
        sys.heartbeat_round();
    }
}

#[test]
fn fail_closed_verdicts_survive_bursts_unshed() {
    let mut sys = build_burst(true);
    drive_burst(&mut sys);

    // The burst really drove the fleet into overload...
    let entered = sys.trace_events().iter().any(|e| {
        matches!(e.kind, TraceKind::OverloadEntered { .. })
            && matches!(e.source, TraceSource::Instance(_))
    });
    assert!(entered, "burst must push an instance into overload");
    // ...and not one verdict-bearing packet was shed.
    for (i, d) in sys.dpi_instances.iter().enumerate() {
        assert_eq!(
            d.lock().total_shed(),
            0,
            "instance {i} shed fail-closed traffic"
        );
    }
    // Scanning never stopped: matches kept flowing mid-burst.
    let matches: u64 = sys.fleet_telemetry().iter().map(|t| t.matches).sum();
    assert!(
        matches >= 12 * 12,
        "every offered packet was scanned and matched"
    );
    // Every verdict reached the IDS: an overloaded instance's matched
    // packets keep the match mark the middlebox pairs on.
    assert_eq!(
        sys.stats_of(IDS_ID).expect("IDS registered").matches,
        matches,
        "the IDS saw every match the fleet reported"
    );
}

#[test]
fn fail_open_bursts_shed_and_trace_every_event() {
    let mut sys = build_burst(false);
    drive_burst(&mut sys);

    let shed: u64 = total(&sys, DpiInstance::total_shed);
    let ce: u64 = total(&sys, DpiInstance::total_ce_marked);
    assert!(shed > 0, "fail-open chain sheds under a 10x burst");

    // Acceptance: every shed and CE-mark appears in the trace timeline —
    // the per-instance trace sums equal the instances' counters.
    let events = sys.trace_events();
    let traced_shed: u64 = events
        .iter()
        .filter(|e| matches!(e.source, TraceSource::Instance(_)))
        .filter_map(|e| match e.kind {
            TraceKind::OverloadShed { packets, .. } => Some(packets),
            _ => None,
        })
        .sum();
    let traced_ce: u64 = events
        .iter()
        .filter(|e| matches!(e.source, TraceSource::Instance(_)))
        .filter_map(|e| match e.kind {
            TraceKind::OverloadCeMarked { packets } => Some(packets),
            _ => None,
        })
        .sum();
    assert_eq!(traced_shed, shed, "every shed is traced");
    assert_eq!(traced_ce, ce, "every CE-mark is traced");

    // The system stayed live: data packets kept arriving at the sink
    // throughout the burst (shed packets flow unscanned, fail-open).
    assert!(sys.sink.count() > 0, "system stays live under burst");
}
