//! Controller lifecycle tests over the JSON wire protocol (§4.1):
//! registration, inheritance, pattern add/remove, deployment planning,
//! the fleet following a rule update, and the telemetry → scale-decision
//! loop (§4.3).

use dpi_service::ac::MiddleboxId;
use dpi_service::controller::deploy::{plan_grouped, scale_decision, ScaleDecision};
use dpi_service::controller::{ControllerMessage, ControllerReply, DpiController};
use dpi_service::core::{DpiInstance, MiddleboxProfile, RuleSpec};
use dpi_service::middlebox::ids;
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::{MacAddr, Packet};
use dpi_service::traffic::trace::TraceConfig;
use dpi_service::SystemBuilder;
use std::collections::HashMap;
use std::time::{Duration, Instant};

fn register_json(c: &DpiController, id: u16, name: &str, stateful: bool) {
    let reply = c.handle_json(
        &ControllerMessage::Register {
            middlebox_id: id,
            name: name.into(),
            inherit_from: None,
            stateful,
            read_only: false,
            stopping_condition: None,
        }
        .to_json(),
    );
    assert_eq!(
        ControllerReply::from_json(&reply).unwrap(),
        ControllerReply::Registered { middlebox_id: id }
    );
}

fn add_json(c: &DpiController, mb: u16, rule_id: u16, rule: RuleSpec) {
    let reply = c.handle_json(
        &ControllerMessage::AddPattern {
            middlebox_id: mb,
            rule_id,
            rule,
        }
        .to_json(),
    );
    assert!(ControllerReply::from_json(&reply).unwrap().is_ok());
}

#[test]
fn full_lifecycle_over_the_wire() {
    let c = DpiController::new();
    register_json(&c, 1, "snort-ids", true);
    register_json(&c, 2, "clamav", false);
    add_json(&c, 1, 0, RuleSpec::exact(b"attack-sig".to_vec()));
    add_json(&c, 1, 1, RuleSpec::regex(r"evil-header:\s*\d+"));
    add_json(&c, 2, 0, RuleSpec::exact(b"virus-sig".to_vec()));
    // Both register the same pattern; the global set stores it once.
    add_json(&c, 1, 2, RuleSpec::exact(b"shared-sig".to_vec()));
    add_json(&c, 2, 1, RuleSpec::exact(b"shared-sig".to_vec()));

    let chain = c.register_chain(&[MiddleboxId(1), MiddleboxId(2)]).unwrap();
    let cfg = c.instance_config(&[chain]).unwrap();
    let mut dpi = DpiInstance::new(cfg).unwrap();

    let out = dpi
        .scan_payload(chain, None, b"shared-sig evil-header: 77")
        .unwrap();
    assert_eq!(out.reports.len(), 2);
    // Middlebox 1 got the shared sig (rule 2) and the regex (rule 1).
    let r1 = out.reports.iter().find(|r| r.middlebox_id == 1).unwrap();
    let pids: Vec<u16> = r1.records.iter().map(|r| r.pattern_id()).collect();
    assert!(pids.contains(&2) && pids.contains(&1));
    // Middlebox 2 got the shared sig under ITS rule id 1.
    let r2 = out.reports.iter().find(|r| r.middlebox_id == 2).unwrap();
    assert_eq!(r2.records[0].pattern_id(), 1);

    // Remove middlebox 1's reference to the shared pattern; middlebox 2
    // keeps matching.
    let reply = c.handle_json(
        &ControllerMessage::RemovePattern {
            middlebox_id: 1,
            rule_id: 2,
        }
        .to_json(),
    );
    assert!(ControllerReply::from_json(&reply).unwrap().is_ok());
    let cfg = c.instance_config(&[chain]).unwrap();
    let mut dpi = DpiInstance::new(cfg).unwrap();
    let out = dpi.scan_payload(chain, None, b"shared-sig").unwrap();
    assert_eq!(out.reports.len(), 1);
    assert_eq!(out.reports[0].middlebox_id, 2);
}

#[test]
fn inheritance_then_divergence() {
    let c = DpiController::new();
    register_json(&c, 1, "ids-primary", true);
    add_json(&c, 1, 0, RuleSpec::exact(b"base-sig".to_vec()));
    // A second IDS inherits, then adds its own rule.
    let reply = c.handle_json(
        &ControllerMessage::Register {
            middlebox_id: 9,
            name: "ids-secondary".into(),
            inherit_from: Some(1),
            stateful: true,
            read_only: true,
            stopping_condition: None,
        }
        .to_json(),
    );
    assert!(ControllerReply::from_json(&reply).unwrap().is_ok());
    add_json(&c, 9, 1, RuleSpec::exact(b"extra-sig".to_vec()));

    let chain = c.register_chain(&[MiddleboxId(9)]).unwrap();
    let mut dpi = DpiInstance::new(c.instance_config(&[chain]).unwrap()).unwrap();
    let out = dpi
        .scan_payload(chain, None, b"base-sig and extra-sig")
        .unwrap();
    let pids: Vec<u16> = out.reports[0]
        .records
        .iter()
        .map(|r| r.pattern_id())
        .collect();
    assert_eq!(pids, vec![0, 1]);
}

#[test]
fn pattern_transfer_size_is_compact() {
    // §4.1: "as opposed to DPI DFAs, which are large, the pattern sets
    // themselves are compact". Verify the global set's serialized size is
    // orders of magnitude below the built automaton.
    let c = DpiController::new();
    register_json(&c, 1, "snort", false);
    let pats = dpi_service::traffic::patterns::snort_like(2000, 3);
    for (i, p) in pats.iter().enumerate() {
        c.add_pattern(MiddleboxId(1), i as u16, &RuleSpec::exact(p.clone()))
            .unwrap();
    }
    let transfer = c.pattern_transfer_bytes();
    let chain = c.register_chain(&[MiddleboxId(1)]).unwrap();
    let dpi = DpiInstance::new(c.instance_config(&[chain]).unwrap()).unwrap();
    let dfa_bytes = dpi_service::ac::Automaton::memory_bytes(dpi.engine().automaton());
    assert!(
        transfer * 20 < dfa_bytes,
        "transfer {transfer} B should be far below the DFA's {dfa_bytes} B"
    );
}

/// Registers `rules` through a fresh controller, split over middleboxes
/// of at most 4,356 rules each (the benchmark's set), and returns the
/// time it took.
fn registration_time(rules: &[RuleSpec]) -> Duration {
    let c = DpiController::new();
    let start = Instant::now();
    for (i, chunk) in rules.chunks(4356).enumerate() {
        let id = MiddleboxId(i as u16 + 1);
        c.register(id, "ids", None, MiddleboxProfile::stateless(id))
            .unwrap();
        for (r, rule) in chunk.iter().enumerate() {
            c.add_pattern(id, r as u16, rule).unwrap();
        }
    }
    start.elapsed()
}

#[test]
fn registration_time_grows_linearly_with_the_rule_count() {
    // Linear registration takes about 8x as long for 8x the rules; one
    // that re-reads the whole store per rule takes about 64x.
    let rules = |n| RuleSpec::exact_set(&dpi_service::traffic::snort_like(n, 42));
    let (small, large) = (rules(2_000), rules(16_000));
    let best = |r: &[RuleSpec]| (0..3).map(|_| registration_time(r)).min().unwrap();
    let (t_small, t_large) = (best(&small), best(&large));
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64();
    assert!(
        ratio < 24.0,
        "16,000 rules took {t_large:?}, {ratio:.1}x the {t_small:?} of 2,000"
    );
}

#[test]
fn deployment_groups_and_scaling() {
    let c = DpiController::new();
    for id in 1..=6u16 {
        register_json(&c, id, &format!("mb{id}"), false);
        add_json(
            &c,
            id,
            0,
            RuleSpec::exact(format!("sig-{id:04}").into_bytes()),
        );
    }
    // Two families of similar chains.
    let c1 = c.register_chain(&[MiddleboxId(1), MiddleboxId(2)]).unwrap();
    let c2 = c
        .register_chain(&[MiddleboxId(1), MiddleboxId(2), MiddleboxId(3)])
        .unwrap();
    let c3 = c.register_chain(&[MiddleboxId(5), MiddleboxId(6)]).unwrap();
    let c4 = c
        .register_chain(&[MiddleboxId(4), MiddleboxId(5), MiddleboxId(6)])
        .unwrap();

    let chains: std::collections::HashMap<u16, Vec<MiddleboxId>> = [c1, c2, c3, c4]
        .into_iter()
        .map(|id| (id, c.chain_members(id).unwrap()))
        .collect();
    let plan = plan_grouped(&chains, 2, 0.3);
    assert_eq!(plan.groups.len(), 2);

    // Each group builds a working instance from the controller state.
    for group in &plan.groups {
        let cfg = c.instance_config(group).unwrap();
        let mut dpi = DpiInstance::new(cfg).unwrap();
        for chain in group {
            // The instance serves exactly its group's chains.
            assert!(dpi.scan_payload(*chain, None, b"x").is_ok());
        }
    }

    // Scaling decisions track reported load.
    assert!(matches!(
        scale_decision(&[900, 950], 1000),
        ScaleDecision::Out(_)
    ));
    assert!(matches!(
        scale_decision(&[100, 100, 100, 100], 1000),
        ScaleDecision::In(_)
    ));
}

#[test]
fn malformed_wire_input_is_rejected_gracefully() {
    let c = DpiController::new();
    for bad in [
        "",
        "{}",
        "{\"type\":\"register\"}",
        "{\"type\":\"add_pattern\",\"middlebox_id\":1}",
        "garbage",
    ] {
        let reply = c.handle_json(bad);
        assert!(
            !ControllerReply::from_json(&reply).unwrap().is_ok(),
            "input {bad:?}"
        );
    }
}

fn signature(id: u16) -> Vec<u8> {
    format!("signature-of-{id:02}").into_bytes()
}

/// The three chains both fleet scenarios run over: two similar ones
/// sharing middleboxes 1 and 2, and one over middlebox 4 alone.
const CHAINS: [&[MiddleboxId]; 3] = [
    &[MiddleboxId(1), MiddleboxId(2)],
    &[MiddleboxId(1), MiddleboxId(2), MiddleboxId(3)],
    &[MiddleboxId(4)],
];

#[test]
fn planned_fleet_serves_all_chains_and_follows_updates() {
    let mut builder = SystemBuilder::new().with_dpi_instances(2);
    for id in 1..=4u16 {
        builder = builder.with_middlebox(ids(MiddleboxId(id), &[signature(id)]));
    }
    for members in CHAINS {
        builder = builder.with_chain(members);
    }
    let mut sys = builder.build().unwrap();
    let chains = sys.chain_ids.clone();

    // Grouping similar chains partitions them: every chain has exactly
    // one server.
    let members: HashMap<u16, Vec<MiddleboxId>> = chains
        .iter()
        .map(|&id| (id, sys.controller.chain_members(id).unwrap()))
        .collect();
    let plan = plan_grouped(&members, 2, 0.4);
    assert_eq!(plan.groups.len(), 2);
    for chain in &chains {
        let servers = plan.groups.iter().filter(|g| g.contains(chain)).count();
        assert_eq!(servers, 1, "chain {chain} must have exactly one server");
    }

    // Each chain's traffic is reported to its own first member.
    let mut batch: Vec<Packet> = chains
        .iter()
        .enumerate()
        .map(|(i, &chain)| {
            let f = flow(
                [10, 0, 0, 1],
                100 + i as u16,
                [10, 0, 0, 2],
                80,
                IpProtocol::Tcp,
            );
            let payload = signature(members[&chain][0].0);
            let mut p = Packet::tcp(MacAddr::local(1), MacAddr::local(2), f, 0, payload);
            p.push_chain_tag(chain).unwrap();
            p
        })
        .collect();
    let results = sys.inspect_batch(&mut batch);
    assert_eq!(results.len(), chains.len());
    for (r, chain) in results.iter().zip(&chains) {
        assert_eq!(r.reports.len(), 1);
        assert_eq!(r.reports[0].middlebox_id, members[chain][0].0);
    }

    // A controller-side addition rolls out to the whole fleet: the next
    // two flows land on the two instances, and both match it.
    let late = flow([10, 0, 0, 3], 1, [10, 0, 0, 2], 80, IpProtocol::Tcp);
    sys.send(late, 0, b"late-addition");
    assert_eq!(sys.stats_of(MiddleboxId(1)).unwrap().matches, 0);
    sys.controller
        .add_pattern(
            MiddleboxId(1),
            1,
            &RuleSpec::exact(b"late-addition".to_vec()),
        )
        .unwrap();
    let outcome = sys.apply_update().unwrap();
    assert!(
        outcome.committed,
        "update must commit: {:?}",
        outcome.failure
    );
    for port in 2..4 {
        let f = flow([10, 0, 0, 3], port, [10, 0, 0, 2], 80, IpProtocol::Tcp);
        sys.send(f, 0, b"late-addition");
    }
    assert_eq!(sys.stats_of(MiddleboxId(1)).unwrap().matches, 2);
    for d in &sys.dpi_instances {
        assert_eq!(d.lock().generation(), outcome.generation);
    }
}

#[test]
fn telemetry_loop_drives_scale_decisions() {
    let c = DpiController::new();
    for id in 1..=4u16 {
        register_json(&c, id, &format!("mb-{id}"), false);
        add_json(&c, id, 0, RuleSpec::exact(signature(id)));
    }
    let chains: Vec<u16> = CHAINS
        .iter()
        .map(|m| c.register_chain(m).unwrap())
        .collect();
    let deploy = |chain: u16| {
        let id = c.deploy_instance(vec![chain]);
        let instance = DpiInstance::new(c.instance_config(&[chain]).unwrap()).unwrap();
        (id, instance)
    };
    let (a_id, mut a) = deploy(chains[0]);
    let (b_id, mut b) = deploy(chains[2]);

    // Uneven load: instance A gets a heavy trace, B a trickle.
    let heavy = TraceConfig {
        packets: 400,
        seed: 31,
        ..TraceConfig::default()
    }
    .generate(&[]);
    for p in &heavy {
        a.scan_payload(chains[0], None, p).unwrap();
    }
    for p in &heavy[..10] {
        b.scan_payload(chains[2], None, p).unwrap();
    }

    let da = c.report_telemetry(a_id, a.telemetry()).unwrap();
    let db = c.report_telemetry(b_id, b.telemetry()).unwrap();
    assert!(da.bytes > 10 * db.bytes);

    // Capacity chosen so the fleet is overloaded → scale out.
    let loads = [da.bytes, db.bytes];
    assert!(matches!(
        scale_decision(&loads, da.bytes / 2),
        ScaleDecision::Out(_)
    ));
    // With huge capacity, the underloaded fleet scales in.
    assert!(matches!(
        scale_decision(&loads, da.bytes * 10),
        ScaleDecision::In(_)
    ));
}
